// Lazy background tag indexing: visibility semantics, crash-replay of acknowledged
// intents (tear sweep over every checkpoint write budget), a seeded differential check
// against an inline-indexed reference, and a multi-threaded tag-storm stress run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/storage/block_device.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace core {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

FileSystemOptions LazyOptions() {
  FileSystemOptions opts;
  opts.lazy_indexing_threads = 0;  // Content indexing out of the way; tags only.
  opts.lazy_tag_indexing = true;
  return opts;
}

FileSystemOptions InlineOptions() {
  FileSystemOptions opts;
  opts.lazy_indexing_threads = 0;
  opts.lazy_tag_indexing = false;
  return opts;
}

std::unique_ptr<FileSystem> MakeFs(std::shared_ptr<BlockDevice> dev,
                                   FileSystemOptions opts) {
  auto fs = FileSystem::Create(std::move(dev), opts);
  EXPECT_TRUE(fs.ok()) << fs.status().ToString();
  return fs.ok() ? std::move(fs).value() : nullptr;
}

std::vector<ObjectId> StrictFind(FileSystem* fs, const std::string& query) {
  query::FindOptions o;
  o.visibility = query::Visibility::kStrict;
  auto page = fs->Find(Slice(query), o);
  EXPECT_TRUE(page.ok()) << query << ": " << page.status().ToString();
  return page.ok() ? page->ids : std::vector<ObjectId>{};
}

std::vector<ObjectId> RelaxedFind(FileSystem* fs, const std::string& query) {
  query::FindOptions o;
  o.visibility = query::Visibility::kRelaxed;
  auto page = fs->Find(Slice(query), o);
  EXPECT_TRUE(page.ok()) << query << ": " << page.status().ToString();
  return page.ok() ? page->ids : std::vector<ObjectId>{};
}

// ---------------------------------------------------------------- visibility

TEST(LazyIndexTest, StrictFindSeesEveryAcknowledgedMutation) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), LazyOptions());
  std::vector<ObjectId> oids;
  for (int i = 0; i < 50; i++) {
    auto oid = fs->Create({{"UDEF", "lazy" + std::to_string(i % 5)}});
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  // Strict visibility: every acknowledged add is in the result, no drain call needed.
  std::vector<ObjectId> expect;
  for (size_t i = 0; i < oids.size(); i += 5) {
    expect.push_back(oids[i]);
  }
  EXPECT_EQ(StrictFind(fs.get(), "UDEF:lazy0"), expect);
}

TEST(LazyIndexTest, RelaxedFindServesCurrentPostingsWithoutWaiting) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), LazyOptions());
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  fs->tag_indexer_for_testing()->SetPausedForTesting(true);
  ASSERT_TRUE(fs->AddTag(*oid, {"UDEF", "pinned"}).ok());
  // The add is acknowledged but unapplied: relaxed misses it, the reverse map
  // (authoritative naming state) already has it.
  EXPECT_TRUE(RelaxedFind(fs.get(), "UDEF:pinned").empty());
  EXPECT_TRUE(fs->HasName(*oid, {"UDEF", "pinned"}));
  auto tags = fs->Tags(*oid);
  ASSERT_TRUE(tags.ok());
  ASSERT_EQ(tags->size(), 1u);
  EXPECT_EQ((*tags)[0].value, "pinned");
  EXPECT_EQ(fs->PendingIndexIntents().size(), 1u);

  fs->tag_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  EXPECT_EQ(RelaxedFind(fs.get(), "UDEF:pinned"), std::vector<ObjectId>{*oid});
  EXPECT_TRUE(fs->PendingIndexIntents().empty());
}

TEST(LazyIndexTest, StrictFindBlocksUntilTheHorizonIsApplied) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), LazyOptions());
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  fs->tag_indexer_for_testing()->SetPausedForTesting(true);
  ASSERT_TRUE(fs->AddTag(*oid, {"UDEF", "gated"}).ok());

  std::atomic<bool> done{false};
  std::vector<ObjectId> got;
  std::thread reader([&] {
    got = StrictFind(fs.get(), "UDEF:gated");
    done.store(true);
  });
  // The strict reader must be parked on the applied-sequence horizon.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  fs->tag_indexer_for_testing()->SetPausedForTesting(false);
  reader.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(got, std::vector<ObjectId>{*oid});
}

TEST(LazyIndexTest, RemoveTagAndRemoveObjectConvergeThroughTheQueue) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), LazyOptions());
  auto a = fs->Create({{"UDEF", "keep"}, {"USER", "m"}});
  auto b = fs->Create({{"UDEF", "keep"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs->RemoveTag(*a, {"USER", "m"}).ok());
  // Double remove fails against the inline reverse map, exactly like inline mode.
  EXPECT_TRUE(fs->RemoveTag(*a, {"USER", "m"}).IsNotFound());
  ASSERT_TRUE(fs->Remove(*b).ok());
  EXPECT_EQ(StrictFind(fs.get(), "UDEF:keep"), std::vector<ObjectId>{*a});
  EXPECT_TRUE(StrictFind(fs.get(), "USER:m").empty());
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

TEST(LazyIndexTest, FsckSuppressesInFlightIntentsInsteadOfReportingOrphans) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), LazyOptions());
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  fs->tag_indexer_for_testing()->SetPausedForTesting(true);
  // Reverse map ahead of the forward index — previously phase 2's "missing from
  // forward index" orphan.
  ASSERT_TRUE(fs->AddTag(*oid, {"UDEF", "inflight"}).ok());
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  fs->tag_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
}

// ---------------------------------------------------------------- crash replay

// The tear sweep (satellite of the osd-level CheckpointTearTest): acknowledged tag
// intents with the indexer queue deliberately HALF drained, then a checkpoint cut off
// after `budget` device writes with the last one torn. Whatever the tear position —
// inside the pending-intent tree epilogue, mid page image, before the journal reset —
// reopening must rebuild the unapplied queue and strict reads must converge on every
// acknowledged tag. Large budgets let the checkpoint complete and exercise the
// persisted pending set instead of journal-suffix replay.
class LazyIndexTearTest : public ::testing::TestWithParam<int> {};

TEST_P(LazyIndexTearTest, AcknowledgedIntentsSurviveATornCheckpoint) {
  const int64_t budget = GetParam();
  FileSystemOptions opts = LazyOptions();
  opts.osd.group_commit = false;  // Every op durable on return.
  std::vector<std::pair<ObjectId, std::string>> acked;  // (oid, UDEF value)
  test::RunTornWriteCrash(
      kDev, budget,
      [&](const std::shared_ptr<FaultyBlockDevice>& faulty, test::CrashPoint* point) {
        auto fs = MakeFs(faulty, opts);
        ASSERT_NE(fs, nullptr);
        std::vector<ObjectId> oids;
        for (int i = 0; i < 6; i++) {
          auto oid = fs->Create();
          ASSERT_TRUE(oid.ok());
          oids.push_back(*oid);
        }
        // First half: acknowledged AND applied.
        for (int i = 0; i < 3; i++) {
          ASSERT_TRUE(fs->AddTag(oids[i], {"UDEF", "crash" + std::to_string(i)}).ok());
          acked.emplace_back(oids[i], "crash" + std::to_string(i));
        }
        ASSERT_TRUE(fs->WaitForTagIndexing().ok());
        // Second half: acknowledged, pinned unapplied — the crash window the design
        // is for.
        fs->tag_indexer_for_testing()->SetPausedForTesting(true);
        for (int i = 3; i < 6; i++) {
          ASSERT_TRUE(fs->AddTag(oids[i], {"UDEF", "crash" + std::to_string(i)}).ok());
          acked.emplace_back(oids[i], "crash" + std::to_string(i));
        }
        ASSERT_TRUE(fs->Sync().ok());
        EXPECT_EQ(fs->PendingIndexIntents().size(), 3u);

        point->Tear();
        (void)fs->Checkpoint();  // May fail anywhere, including mid-WriteBatch.
        point->Crash();          // Hard crash: the destructor reaches nothing.
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        auto reopened = FileSystem::Open(base, opts);
        ASSERT_TRUE(reopened.ok())
            << "budget " << budget << ": " << reopened.status().ToString();
        FileSystem* fs = reopened->get();
        ASSERT_TRUE(fs->WaitForTagIndexing().ok()) << "budget " << budget;
        for (const auto& [oid, value] : acked) {
          EXPECT_EQ(StrictFind(fs, "UDEF:" + value), std::vector<ObjectId>{oid})
              << "budget " << budget << " lost acknowledged tag " << value;
          EXPECT_TRUE(fs->HasName(oid, {"UDEF", value})) << "budget " << budget;
        }
        auto report = CheckFileSystem(fs);
        ASSERT_TRUE(report.ok()) << "budget " << budget;
        EXPECT_TRUE(report->clean())
            << "budget " << budget << ": " << report->ToString();
      });
}

INSTANTIATE_TEST_SUITE_P(TearAtEveryWrite, LazyIndexTearTest, ::testing::Range(0, 26));

// An inline (non-lazy) reopen of a lazily-written volume must apply the recovered
// intents immediately instead of seeding a queue it does not have.
TEST(LazyIndexRecoveryTest, InlineReopenAppliesRecoveredIntents) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  FileSystemOptions opts = LazyOptions();
  opts.osd.group_commit = false;
  ObjectId oid = 0;
  {
    auto fs = MakeFs(faulty, opts);
    ASSERT_NE(fs, nullptr);
    auto r = fs->Create();
    ASSERT_TRUE(r.ok());
    oid = *r;
    fs->tag_indexer_for_testing()->SetPausedForTesting(true);
    ASSERT_TRUE(fs->AddTag(oid, {"UDEF", "adopted"}).ok());
    ASSERT_TRUE(fs->Sync().ok());
    faulty->SetWriteBudget(0);
  }
  auto reopened = FileSystem::Open(base, InlineOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->PendingIndexIntents().size(), 0u);
  EXPECT_EQ(StrictFind(reopened->get(), "UDEF:adopted"), std::vector<ObjectId>{oid});
  auto report = CheckFileSystem(reopened->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// A clean close with the queue still partially drained: the destructor's checkpoint
// persists the pending set, and the next open re-seeds it.
TEST(LazyIndexRecoveryTest, CleanCloseCarriesUnappliedIntentsAcrossReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  ObjectId oid = 0;
  {
    auto fs = MakeFs(dev, LazyOptions());
    ASSERT_NE(fs, nullptr);
    auto r = fs->Create();
    ASSERT_TRUE(r.ok());
    oid = *r;
    fs->tag_indexer_for_testing()->SetPausedForTesting(true);
    ASSERT_TRUE(fs->AddTag(oid, {"UDEF", "carried"}).ok());
  }  // Destructor: Drain is a paused no-op, checkpoint persists the pending set.
  auto reopened = FileSystem::Open(dev, LazyOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->WaitForTagIndexing().ok());
  EXPECT_EQ(StrictFind(reopened->get(), "UDEF:carried"), std::vector<ObjectId>{oid});
}

// Lazy CONTENT indexing on default options (2 full-text workers): what the workers
// indexed must survive a clean close, i.e. their batches must reach the store's
// registered root and not just the in-memory tree.
TEST(LazyIndexRecoveryTest, LazyContentIndexSurvivesCleanReopen) {
  constexpr int kObjects = 40;
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  std::vector<ObjectId> oids;
  {
    auto fs = MakeFs(dev, FileSystemOptions{});
    ASSERT_NE(fs, nullptr);
    for (int i = 0; i < kObjects; i++) {
      auto oid = fs->Create();
      ASSERT_TRUE(oid.ok());
      std::string text = "lazy content uniq" + std::to_string(i) + " shared words";
      ASSERT_TRUE(fs->Write(*oid, 0, text).ok());
      ASSERT_TRUE(fs->IndexContent(*oid).ok());
      oids.push_back(*oid);
    }
    ASSERT_TRUE(fs->WaitForIndexing().ok());
    for (int i = 0; i < kObjects; i++) {
      auto hits = fs->SearchText({"uniq" + std::to_string(i)});
      ASSERT_TRUE(hits.ok());
      ASSERT_EQ(hits->size(), 1u) << "live view, object " << i;
    }
  }  // Clean close.
  auto reopened = FileSystem::Open(dev, FileSystemOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  int found = 0;
  for (int i = 0; i < kObjects; i++) {
    auto hits = (*reopened)->SearchText({"uniq" + std::to_string(i)});
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    if (hits->size() == 1 && (*hits)[0].docid == oids[static_cast<size_t>(i)]) {
      found++;
    }
  }
  EXPECT_EQ(found, kObjects);
  auto shared = (*reopened)->SearchText({"shared"});
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->size(), static_cast<size_t>(kObjects));
  auto report = CheckFileSystem(reopened->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// Removing an object whose content snapshot is still queued: the removal must win,
// so no later batch re-indexes the removed object.
TEST(LazyIndexTest, RemoveDropsQueuedContentSnapshots) {
  constexpr int kObjects = 300;
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), FileSystemOptions{});
  ASSERT_NE(fs, nullptr);
  for (int i = 0; i < kObjects; i++) {
    auto oid = fs->Create();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->Write(*oid, 0, "ghost content " + std::to_string(i)).ok());
    ASSERT_TRUE(fs->IndexContent(*oid).ok());
    ASSERT_TRUE(fs->Remove(*oid).ok());
  }
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  auto hits = fs->SearchText({"ghost"});
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty()) << hits->size() << " removed objects still indexed";
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// ---------------------------------------------------------------- differential

// Randomized seeded workloads applied to a lazy filesystem and an inline-indexed
// reference in lockstep: after every op the acknowledged statuses must match, and at
// every sync point strict Find on the lazy side must equal Find on the reference.
TEST(LazyIndexDifferentialTest, StrictFindMatchesInlineReference) {
  const std::vector<std::string> kTags = {"UDEF", "USER"};
  const int kValues = 8;
  for (uint64_t seed : {7u, 19u, 43u}) {
    auto lazy = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), LazyOptions());
    auto ref = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), InlineOptions());
    ASSERT_NE(lazy, nullptr);
    ASSERT_NE(ref, nullptr);
    Random rng(seed);
    std::vector<ObjectId> oids;
    auto check_all = [&] {
      for (const std::string& tag : kTags) {
        for (int v = 0; v < kValues; v++) {
          std::string q = tag + ":v" + std::to_string(v);
          EXPECT_EQ(StrictFind(lazy.get(), q), StrictFind(ref.get(), q))
              << "seed " << seed << " query " << q;
        }
      }
      std::string boolean = "UDEF:v1 AND USER:v2";
      EXPECT_EQ(StrictFind(lazy.get(), boolean), StrictFind(ref.get(), boolean))
          << "seed " << seed;
      std::string negated = "UDEF:v3 AND NOT USER:v0";
      EXPECT_EQ(StrictFind(lazy.get(), negated), StrictFind(ref.get(), negated))
          << "seed " << seed;
    };
    for (int op = 0; op < 400; op++) {
      uint64_t dice = rng.Uniform(100);
      if (oids.empty() || dice < 10) {
        auto a = lazy->Create();
        auto b = ref->Create();
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_EQ(*a, *b) << "oid sequences diverged";
        oids.push_back(*a);
      } else if (dice < 55) {
        ObjectId oid = oids[rng.Uniform(oids.size())];
        TagValue name{kTags[rng.Uniform(kTags.size())],
                      "v" + std::to_string(rng.Uniform(kValues))};
        Status sa = lazy->AddTag(oid, name);
        Status sb = ref->AddTag(oid, name);
        EXPECT_EQ(sa.code(), sb.code()) << "seed " << seed << " op " << op;
      } else if (dice < 85) {
        ObjectId oid = oids[rng.Uniform(oids.size())];
        TagValue name{kTags[rng.Uniform(kTags.size())],
                      "v" + std::to_string(rng.Uniform(kValues))};
        Status sa = lazy->RemoveTag(oid, name);
        Status sb = ref->RemoveTag(oid, name);
        EXPECT_EQ(sa.code(), sb.code()) << "seed " << seed << " op " << op;
      } else {
        // A staged batch: 1-4 adds/removes committed as one journal record.
        NamespaceBatch lb = lazy->NewBatch();
        NamespaceBatch rb = ref->NewBatch();
        int n = 1 + static_cast<int>(rng.Uniform(4));
        for (int i = 0; i < n; i++) {
          ObjectId oid = oids[rng.Uniform(oids.size())];
          TagValue name{kTags[rng.Uniform(kTags.size())],
                        "v" + std::to_string(rng.Uniform(kValues))};
          if (rng.OneIn(3)) {
            ASSERT_TRUE(lb.RemoveTag(oid, name).ok());
            ASSERT_TRUE(rb.RemoveTag(oid, name).ok());
          } else {
            ASSERT_TRUE(lb.AddTag(oid, name).ok());
            ASSERT_TRUE(rb.AddTag(oid, name).ok());
          }
        }
        Status sa = lb.Commit();
        Status sb = rb.Commit();
        EXPECT_EQ(sa.code(), sb.code()) << "seed " << seed << " op " << op;
      }
      if (op % 100 == 99) {
        check_all();
      }
    }
    check_all();
    ASSERT_TRUE(lazy->WaitForTagIndexing().ok());
    auto report = CheckFileSystem(lazy.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << "seed " << seed << ": " << report->ToString();
  }
}

// ---------------------------------------------------------------- multi-worker

// With several application workers, tags are hash-partitioned so per-tag FIFO order
// is preserved; add/remove/add sequences queued before any of them apply must net to
// the same final postings as single-worker operation.
TEST(LazyIndexTest, MultiWorkerAppliesPerTagFifoOrder) {
  FileSystemOptions opts = LazyOptions();
  opts.tag_indexer_workers = 4;
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), opts);
  ASSERT_NE(fs, nullptr);
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  fs->tag_indexer_for_testing()->SetPausedForTesting(true);
  for (int t = 0; t < 32; t++) {
    TagValue name{"UDEF", "mw" + std::to_string(t)};
    ASSERT_TRUE(fs->AddTag(*oid, name).ok());
    ASSERT_TRUE(fs->RemoveTag(*oid, name).ok());
    if (t % 2 == 0) {
      ASSERT_TRUE(fs->AddTag(*oid, name).ok());
    }
  }
  EXPECT_FALSE(fs->PendingIndexIntents().empty());
  fs->tag_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  for (int t = 0; t < 32; t++) {
    std::string q = "UDEF:mw" + std::to_string(t);
    if (t % 2 == 0) {
      EXPECT_EQ(StrictFind(fs.get(), q), std::vector<ObjectId>{*oid}) << q;
    } else {
      EXPECT_TRUE(StrictFind(fs.get(), q).empty()) << q;
    }
  }
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// ---------------------------------------------------------------- concurrency

// 8 threads against one lazy filesystem: 4 tag-storm writers, a strict reader, a
// relaxed reader, and an fsck loop, with the background indexer draining throughout.
// Registered in the CI ThreadSanitizer job; the assertions here are liveness (no
// deadlock between ReserveSlots / the worker / checkpoints), ack-loss (strict reads
// converge on everything after the storm), and a clean final fsck.
TEST(LazyIndexStressTest, TagStormWithConcurrentReadersAndFsck) {
  FileSystemOptions opts = LazyOptions();
  // A small queue so writers regularly block in ReserveSlots and exercise the
  // backpressure path against the worker and checkpoints. Three workers (uneven
  // hash split) so the TSan job covers multi-worker draining too.
  opts.tag_intent_queue_capacity = 64;
  opts.tag_indexer_workers = 3;
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev), opts);
  ASSERT_NE(fs, nullptr);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 250;
  std::vector<ObjectId> oids;
  for (int i = 0; i < 32; i++) {
    auto oid = fs->Create();
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      Random rng(1000 + w);
      for (int i = 0; i < kOpsPerWriter; i++) {
        ObjectId oid = oids[rng.Uniform(oids.size())];
        TagValue name{"UDEF", "w" + std::to_string(w) + "v" +
                                  std::to_string(rng.Uniform(16))};
        if (rng.OneIn(4)) {
          Status s = fs->RemoveTag(oid, name);
          if (!s.ok() && !s.IsNotFound()) failures.fetch_add(1);
        } else {
          if (!fs->AddTag(oid, name).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Strict reader.
    Random rng(2000);
    while (!stop.load()) {
      query::FindOptions o;
      o.visibility = query::Visibility::kStrict;
      auto page = fs->Find(Slice("UDEF:w" + std::to_string(rng.Uniform(4)) + "v" +
                                 std::to_string(rng.Uniform(16))),
                           o);
      if (!page.ok()) failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {  // Relaxed reader.
    Random rng(3000);
    while (!stop.load()) {
      query::FindOptions o;
      o.visibility = query::Visibility::kRelaxed;
      auto page = fs->Find(Slice("UDEF:w" + std::to_string(rng.Uniform(4)) + "v" +
                                 std::to_string(rng.Uniform(16))),
                           o);
      if (!page.ok()) failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {  // Fsck loop: must run to completion, mid-storm reports
    while (!stop.load()) {     // may be transiently stale and are not asserted clean.
      auto report = CheckFileSystem(fs.get());
      if (!report.ok()) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (int w = 0; w < kWriters; w++) {
    threads[w].join();
  }
  stop.store(true);
  for (size_t i = kWriters; i < threads.size(); i++) {
    threads[i].join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());
  EXPECT_TRUE(fs->PendingIndexIntents().empty());

  // Quiesced: the forward postings must now mirror the reverse map exactly.
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  // And strict Find agrees with the authoritative reverse map for every value.
  for (int w = 0; w < kWriters; w++) {
    for (int v = 0; v < 16; v++) {
      std::string value = "w" + std::to_string(w) + "v" + std::to_string(v);
      std::vector<ObjectId> expect;
      for (ObjectId oid : oids) {
        if (fs->HasName(oid, {"UDEF", value})) {
          expect.push_back(oid);
        }
      }
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(StrictFind(fs.get(), "UDEF:" + value), expect) << value;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace hfad
