// The background content indexer: visibility semantics of content intents (tags apply
// inline and never wait), crash-replay of acknowledged intents (tear sweep over every
// checkpoint write budget), replay of tag intents left by volumes written with lazy tag
// indexing, a seeded differential check against a reference that applies content at
// once, queue back-pressure, and a multi-threaded storm.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/content_indexer.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/index/index_store.h"
#include "src/osd/osd.h"
#include "src/storage/block_device.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace core {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

std::unique_ptr<FileSystem> MakeFs(std::shared_ptr<BlockDevice> dev) {
  auto fs = FileSystem::Create(std::move(dev));
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

// SearchText for one term (strict unless told otherwise), as ascending oids.
std::vector<ObjectId> TextHits(FileSystem* fs, const std::string& term,
                               query::Visibility visibility = query::Visibility::kStrict) {
  FileSystem::SearchTextOptions o;
  o.visibility = visibility;
  auto hits = fs->SearchText({term}, o);
  EXPECT_TRUE(hits.ok()) << term << ": " << hits.status().ToString();
  std::vector<ObjectId> out;
  if (hits.ok()) {
    for (const auto& hit : *hits) {
      out.push_back(hit.docid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> RelaxedFind(FileSystem* fs, const std::string& query) {
  query::FindOptions o;
  o.visibility = query::Visibility::kRelaxed;
  auto page = fs->Find(Slice(query), o);
  EXPECT_TRUE(page.ok()) << query << ": " << page.status().ToString();
  return page.ok() ? page->ids : std::vector<ObjectId>{};
}

// Write `text` as the object's whole content and queue it for indexing.
Status WriteAndIndex(FileSystem* fs, ObjectId oid, const std::string& text) {
  HFAD_ASSIGN_OR_RETURN(uint64_t size, fs->Size(oid));
  HFAD_RETURN_IF_ERROR(fs->Truncate(oid, 0, size));
  if (!text.empty()) {
    HFAD_RETURN_IF_ERROR(fs->Write(oid, 0, text));
  }
  return fs->IndexContent(oid);
}

void ExpectFsckClean(FileSystem* fs) {
  auto report = CheckFileSystem(fs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// ---------------------------------------------------------------- visibility

TEST(LazyIndexTest, StrictFindSeesEveryAcknowledgedMutation) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  std::vector<ObjectId> oids;
  for (int i = 0; i < 50; i++) {
    auto oid = fs->Create({{"UDEF", "lazy" + std::to_string(i % 5)}});
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(WriteAndIndex(fs.get(), *oid, "lazy" + std::to_string(i % 5)).ok());
    oids.push_back(*oid);
  }
  // Strict visibility: every acknowledged tag and document is in the result, no drain
  // call needed.
  std::vector<ObjectId> expect;
  for (size_t i = 0; i < oids.size(); i += 5) {
    expect.push_back(oids[i]);
  }
  EXPECT_EQ(StrictFind(fs.get(), "UDEF:lazy0"), expect);
  EXPECT_EQ(StrictFind(fs.get(), "FULLTEXT:lazy0"), expect);
  EXPECT_EQ(StrictFind(fs.get(), "UDEF:lazy0 AND FULLTEXT:lazy0"), expect);
}

TEST(LazyIndexTest, RelaxedFindServesCurrentPostingsWithoutWaiting) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs->Write(*oid, 0, "pinned").ok());
  fs->content_indexer_for_testing()->SetPausedForTesting(true);
  ASSERT_TRUE(fs->IndexContent(*oid).ok());
  // The document is acknowledged but unapplied: relaxed misses it, the reverse map
  // (authoritative naming state) already carries its marker.
  EXPECT_TRUE(RelaxedFind(fs.get(), "FULLTEXT:pinned").empty());
  EXPECT_TRUE(fs->HasName(*oid, {"FULLTEXT", ""}));
  EXPECT_EQ(fs->PendingContentIntents(), std::vector<ObjectId>{*oid});

  fs->content_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  EXPECT_EQ(RelaxedFind(fs.get(), "FULLTEXT:pinned"), std::vector<ObjectId>{*oid});
  EXPECT_TRUE(fs->PendingContentIntents().empty());
}

TEST(LazyIndexTest, StrictFindBlocksUntilTheHorizonIsApplied) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = fs->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs->Write(*oid, 0, "gated").ok());
  fs->content_indexer_for_testing()->SetPausedForTesting(true);
  ASSERT_TRUE(fs->AddTag(*oid, {"UDEF", "gated"}).ok());
  ASSERT_TRUE(fs->IndexContent(*oid).ok());
  // Tags apply inline: a tag-only strict Find never waits on the paused indexer.
  EXPECT_EQ(StrictFind(fs.get(), "UDEF:gated"), std::vector<ObjectId>{*oid});

  std::atomic<bool> done{false};
  std::vector<ObjectId> got;
  std::thread reader([&] {
    got = StrictFind(fs.get(), "UDEF:gated AND FULLTEXT:gated");
    done.store(true);
  });
  // The strict full-text reader must be parked on the applied horizon.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  fs->content_indexer_for_testing()->SetPausedForTesting(false);
  reader.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(got, std::vector<ObjectId>{*oid});
}

TEST(LazyIndexTest, RemoveTagAndRemoveObjectConvergeThroughTheQueue) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto a = fs->Create({{"UDEF", "keep"}, {"USER", "m"}});
  auto b = fs->Create({{"UDEF", "keep"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WriteAndIndex(fs.get(), *a, "common words").ok());
  ASSERT_TRUE(WriteAndIndex(fs.get(), *b, "common words").ok());
  ASSERT_TRUE(fs->RemoveTag(*a, {"USER", "m"}).ok());
  // Double remove fails against the reverse map.
  EXPECT_TRUE(fs->RemoveTag(*a, {"USER", "m"}).IsNotFound());
  ASSERT_TRUE(fs->Remove(*b).ok());
  EXPECT_EQ(StrictFind(fs.get(), "UDEF:keep"), std::vector<ObjectId>{*a});
  EXPECT_TRUE(StrictFind(fs.get(), "USER:m").empty());
  EXPECT_EQ(TextHits(fs.get(), "common"), std::vector<ObjectId>{*a});
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  ExpectFsckClean(fs.get());
}

// fsck allows for exactly the pending content intents — a marker whose document is
// still queued, a removed object whose strip is still queued — and for nothing on the
// tag side, where both halves apply before the ack.
TEST(LazyIndexTest, FsckSuppressesInFlightIntentsInsteadOfReportingOrphans) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto a = fs->Create({{"UDEF", "a"}});
  auto b = fs->Create();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs->Write(*a, 0, "inflight").ok());
  ASSERT_TRUE(WriteAndIndex(fs.get(), *b, "doomed").ok());
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  fs->content_indexer_for_testing()->SetPausedForTesting(true);
  // Marker ahead of the full-text store, and a dead object still in it.
  ASSERT_TRUE(fs->IndexContent(*a).ok());
  ASSERT_TRUE(fs->Remove(*b).ok());
  EXPECT_EQ(fs->PendingContentIntents().size(), 2u);
  ExpectFsckClean(fs.get());
  fs->content_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  ExpectFsckClean(fs.get());

  // A tag's forward entry gone missing is reported: no pending intent excuses it.
  ASSERT_TRUE(fs->indexes()->store("UDEF")->Remove("a", *a).ok());
  auto report = CheckFileSystem(fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
}

// A content intent is pending until applied: strict SearchText waits for it, relaxed
// does not see it, fsck allows for it, and the marker it leaves in the reverse map is
// not a name.
TEST(LazyIndexTest, ContentIntentIsPendingUntilApplied) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = fs->Create({{"UDEF", "doc"}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs->Write(*oid, 0, "pending words").ok());
  fs->content_indexer_for_testing()->SetPausedForTesting(true);
  ASSERT_TRUE(fs->IndexContent(*oid).ok());
  EXPECT_TRUE(TextHits(fs.get(), "pending", query::Visibility::kRelaxed).empty());
  EXPECT_EQ(fs->PendingContentIntents(), std::vector<ObjectId>{*oid});
  EXPECT_TRUE(fs->HasName(*oid, {"FULLTEXT", ""}));
  auto tags = fs->Tags(*oid);
  ASSERT_TRUE(tags.ok());
  ASSERT_EQ(tags->size(), 1u);
  EXPECT_EQ((*tags)[0].tag, "UDEF");
  EXPECT_NE(fs->DumpMetrics().find("\"indexer_queue_depth\":1"), std::string::npos);
  ExpectFsckClean(fs.get());

  std::vector<ObjectId> got;
  std::thread reader([&] { got = TextHits(fs.get(), "pending"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fs->content_indexer_for_testing()->SetPausedForTesting(false);
  reader.join();
  EXPECT_EQ(got, std::vector<ObjectId>{*oid});
  EXPECT_TRUE(fs->PendingContentIntents().empty());
  EXPECT_TRUE(fs->RemoveTag(*oid, {"FULLTEXT", ""}).IsInvalidArgument());
}

// Versions of one document apply in submission order, also when they span several
// batches: the document ends at the version indexed last.
TEST(LazyIndexTest, ContentVersionsApplyInSubmitOrder) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  auto doc = fs->Create();
  auto other = fs->Create();
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(fs->Write(*other, 0, "another document").ok());
  // Paused, so the worker later takes the 300 versions as more than one batch.
  fs->content_indexer_for_testing()->SetPausedForTesting(true);
  char version[16];
  for (int v = 0; v < 300; v++) {
    snprintf(version, sizeof(version), "version v%03d", v);
    ASSERT_TRUE(fs->Write(*doc, 0, version).ok());
    ASSERT_TRUE(fs->IndexContent(*doc).ok());
  }
  ASSERT_TRUE(fs->IndexContent(*other).ok());
  fs->content_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  EXPECT_EQ(TextHits(fs.get(), "v299"), std::vector<ObjectId>{*doc});
  EXPECT_TRUE(TextHits(fs.get(), "v000").empty());
  EXPECT_TRUE(TextHits(fs.get(), "v255").empty());
  EXPECT_EQ(TextHits(fs.get(), "another"), std::vector<ObjectId>{*other});
  auto docs = fs->SearchText({"version"});
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 1u);
}

// ---------------------------------------------------------------- crash replay

// The tear sweep (satellite of the osd-level CheckpointTearTest): acknowledged tags and
// content intents with the indexer queue deliberately HALF drained, then a checkpoint
// cut off after `budget` device writes with the last one torn. Whatever the tear
// position — inside the pending-intent tree epilogue, mid page image, before the
// journal reset — reopening must rebuild the unapplied queue and strict reads must
// converge on every acknowledged tag and document. Large budgets let the checkpoint
// complete and exercise the persisted pending set instead of journal-suffix replay.
class LazyIndexTearTest : public ::testing::TestWithParam<int> {};

TEST_P(LazyIndexTearTest, AcknowledgedIntentsSurviveATornCheckpoint) {
  const int64_t budget = GetParam();
  std::vector<std::pair<ObjectId, std::string>> acked;  // (oid, UDEF value)
  test::RunTornWriteCrash(
      kDev, budget,
      [&](const std::shared_ptr<FaultyBlockDevice>& faulty, test::CrashPoint* point) {
        auto fs = MakeFs(faulty);
        ASSERT_NE(fs, nullptr);
        std::vector<ObjectId> oids;
        for (int i = 0; i < 6; i++) {
          auto oid = fs->Create();
          ASSERT_TRUE(oid.ok());
          ASSERT_TRUE(fs->Write(*oid, 0, "torn body" + std::to_string(i)).ok());
          oids.push_back(*oid);
        }
        // First half: acknowledged AND applied.
        for (int i = 0; i < 3; i++) {
          ASSERT_TRUE(fs->AddTag(oids[i], {"UDEF", "crash" + std::to_string(i)}).ok());
          ASSERT_TRUE(fs->IndexContent(oids[i]).ok());
          acked.emplace_back(oids[i], "crash" + std::to_string(i));
        }
        ASSERT_TRUE(fs->WaitForIndexing().ok());
        // Second half: content acknowledged, pinned unapplied — the crash window the
        // design is for.
        fs->content_indexer_for_testing()->SetPausedForTesting(true);
        for (int i = 3; i < 6; i++) {
          ASSERT_TRUE(fs->AddTag(oids[i], {"UDEF", "crash" + std::to_string(i)}).ok());
          ASSERT_TRUE(fs->IndexContent(oids[i]).ok());
          acked.emplace_back(oids[i], "crash" + std::to_string(i));
        }
        ASSERT_TRUE(fs->Sync().ok());  // Everything above is durable from here.
        EXPECT_EQ(fs->PendingContentIntents().size(), 3u);

        point->Tear();
        (void)fs->Checkpoint();  // May fail anywhere, including mid-WriteBatch.
        point->Crash();          // Hard crash: the destructor reaches nothing.
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        auto reopened = FileSystem::Open(base);
        ASSERT_TRUE(reopened.ok())
            << "budget " << budget << ": " << reopened.status().ToString();
        FileSystem* fs = reopened->get();
        ASSERT_TRUE(fs->WaitForIndexing().ok()) << "budget " << budget;
        for (size_t i = 0; i < acked.size(); i++) {
          const auto& [oid, value] = acked[i];
          EXPECT_EQ(StrictFind(fs, "UDEF:" + value), std::vector<ObjectId>{oid})
              << "budget " << budget << " lost acknowledged tag " << value;
          EXPECT_TRUE(fs->HasName(oid, {"UDEF", value})) << "budget " << budget;
          EXPECT_EQ(TextHits(fs, "body" + std::to_string(i)), std::vector<ObjectId>{oid})
              << "budget " << budget << " lost acknowledged content of object " << i;
        }
        auto report = CheckFileSystem(fs);
        ASSERT_TRUE(report.ok()) << "budget " << budget;
        EXPECT_TRUE(report->clean())
            << "budget " << budget << ": " << report->ToString();
      });
}

INSTANTIATE_TEST_SUITE_P(TearAtEveryWrite, LazyIndexTearTest, ::testing::Range(0, 26));

// A tag intent record as volumes written with lazy tag indexing journaled it: one
// kNsIndexIntent (6) framing kNsAddTag (1) / kNsRemoveTag (2) sub-records, exactly like
// a NamespaceBatch record.
std::string LegacyTagIntentRecord(ObjectId oid, const TagValue& add,
                                  const TagValue& remove) {
  std::string rec(1, static_cast<char>(6));
  PutVarint64(&rec, 2);
  for (const auto& [op, name] : {std::make_pair(1, add), std::make_pair(2, remove)}) {
    rec.push_back(static_cast<char>(op));
    PutVarint64(&rec, oid);
    PutLengthPrefixed(&rec, name.tag);
    PutLengthPrefixed(&rec, name.value);
  }
  return rec;
}

// What a reopen must show for LegacyTagIntentRecord(oid, UDEF:legacy, UDEF:old): both
// halves of both ops, in the reverse map and the forward index.
void ExpectLegacyIntentApplied(FileSystem* fs, ObjectId oid) {
  auto tags = fs->Tags(oid);
  ASSERT_TRUE(tags.ok()) << tags.status().ToString();
  ASSERT_EQ(tags->size(), 1u);
  EXPECT_EQ((*tags)[0].value, "legacy");
  EXPECT_TRUE(fs->HasName(oid, {"UDEF", "legacy"}));
  EXPECT_FALSE(fs->HasName(oid, {"UDEF", "old"}));
  EXPECT_EQ(StrictFind(fs, "UDEF:legacy"), std::vector<ObjectId>{oid});
  EXPECT_TRUE(StrictFind(fs, "UDEF:old").empty());
  EXPECT_TRUE(fs->PendingContentIntents().empty());
  ExpectFsckClean(fs);
}

// A legacy tag intent left unapplied in the journal suffix replays like a batch record:
// the reopened volume shows the add and the remove in both halves.
TEST(LegacyIntentReplayTest, JournaledTagIntentAppliesBothHalves) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  ObjectId oid = 0;
  {
    auto fs = MakeFs(faulty);
    ASSERT_NE(fs, nullptr);
    auto r = fs->Create({{"UDEF", "old"}});
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE(fs->volume()
                    ->AppendForeign(LegacyTagIntentRecord(oid, {"UDEF", "legacy"},
                                                          {"UDEF", "old"}))
                    .ok());
    ASSERT_TRUE(fs->Sync().ok());
    faulty->SetWriteBudget(0);  // Crash: the destructor's checkpoint reaches nothing.
  }
  auto reopened = FileSystem::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectLegacyIntentApplied(reopened->get(), oid);
}

// The same record left in the checkpoint's pending-foreign set (where lazy tag indexing
// persisted intents its worker had not applied) replays before the journal suffix.
TEST(LazyIndexRecoveryTest, InlineReopenAppliesRecoveredIntents) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  ObjectId oid = 0;
  {
    auto fs = MakeFs(faulty);
    ASSERT_NE(fs, nullptr);
    auto r = fs->Create({{"UDEF", "old"}});
    ASSERT_TRUE(r.ok());
    oid = *r;
    const std::string rec =
        LegacyTagIntentRecord(oid, {"UDEF", "legacy"}, {"UDEF", "old"});
    fs->volume()->SetUnappliedForeignProvider(
        [rec] { return std::vector<std::string>{rec}; });
    ASSERT_TRUE(fs->Checkpoint().ok());
    faulty->SetWriteBudget(0);
  }
  auto reopened = FileSystem::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectLegacyIntentApplied(reopened->get(), oid);
}

// A clean close with the queue still partially drained: the destructor's checkpoint
// persists the pending set, and the next open re-seeds it.
TEST(LazyIndexRecoveryTest, CleanCloseCarriesUnappliedIntentsAcrossReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  ObjectId oid = 0;
  {
    auto fs = MakeFs(dev);
    ASSERT_NE(fs, nullptr);
    auto r = fs->Create();
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE(fs->Write(oid, 0, "carried").ok());
    fs->content_indexer_for_testing()->SetPausedForTesting(true);
    ASSERT_TRUE(fs->IndexContent(oid).ok());
  }  // Destructor: Drain is a paused no-op, checkpoint persists the pending set.
  auto reopened = FileSystem::Open(dev);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->WaitForIndexing().ok());
  EXPECT_EQ(TextHits(reopened->get(), "carried"), std::vector<ObjectId>{oid});
}

// Lazy CONTENT indexing on default options (2 full-text workers): what the workers
// indexed must survive a clean close, i.e. their batches must reach the store's
// registered root and not just the in-memory tree.
TEST(LazyIndexRecoveryTest, LazyContentIndexSurvivesCleanReopen) {
  constexpr int kObjects = 40;
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  std::vector<ObjectId> oids;
  {
    auto fs = MakeFs(dev);
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
  auto reopened = FileSystem::Open(dev);
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
  ExpectFsckClean(reopened->get());
}

// Default options, content acknowledged but not yet applied when a checkpoint resets
// the journal, then a crash: the checkpoint's pending set must carry every content
// intent, and replay re-reads the objects.
TEST(LazyIndexRecoveryTest, LazyContentIndexSurvivesCheckpointThenCrash) {
  constexpr int kObjects = 400;
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  std::vector<ObjectId> oids;
  {
    auto fs = MakeFs(faulty);
    ASSERT_NE(fs, nullptr);
    for (int i = 0; i < kObjects; i++) {
      auto oid = fs->Create();
      ASSERT_TRUE(oid.ok());
      // Long enough that the indexer is still behind when the checkpoint runs.
      std::string text = "crash content uniq" + std::to_string(i) + " shared words";
      for (int w = 0; w < 300; w++) {
        text += " filler" + std::to_string((i * 31 + w * 7) % 997);
      }
      ASSERT_TRUE(fs->Write(*oid, 0, text).ok());
      ASSERT_TRUE(fs->IndexContent(*oid).ok());
      oids.push_back(*oid);
    }
    ASSERT_TRUE(fs->Checkpoint().ok());
    faulty->SetWriteBudget(0);  // Crash: nothing after the checkpoint reaches the device.
  }
  auto reopened = FileSystem::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Status drained = (*reopened)->WaitForIndexing();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  int found = 0;
  for (int i = 0; i < kObjects; i++) {
    if (TextHits(reopened->get(), "uniq" + std::to_string(i)) ==
        std::vector<ObjectId>{oids[static_cast<size_t>(i)]}) {
      found++;
    }
  }
  EXPECT_EQ(found, kObjects);
  ExpectFsckClean(reopened->get());
}

// A clean close drains the queue: the reopened volume has nothing pending and even a
// relaxed search finds every document.
TEST(LazyIndexRecoveryTest, CloseDrainsQueuedContent) {
  constexpr int kObjects = 50;
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  {
    auto fs = MakeFs(dev);
    ASSERT_NE(fs, nullptr);
    for (int i = 0; i < kObjects; i++) {
      auto oid = fs->Create();
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(fs->Write(*oid, 0, "destructor drained doc").ok());
      ASSERT_TRUE(fs->IndexContent(*oid).ok());
    }
  }  // No WaitForIndexing: the destructor must finish the backlog.
  auto reopened = FileSystem::Open(dev);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->PendingContentIntents().empty());
  EXPECT_EQ(TextHits(reopened->get(), "drained", query::Visibility::kRelaxed).size(),
            static_cast<size_t>(kObjects));
}

// Removing an object whose content snapshot is still queued: the removal must win,
// so no later batch re-indexes the removed object.
TEST(LazyIndexTest, RemoveDropsQueuedContentSnapshots) {
  constexpr int kObjects = 300;
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
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
  ExpectFsckClean(fs.get());
}

// ---------------------------------------------------------------- differential

// Randomized seeded workloads applied in lockstep to a filesystem whose content applies
// in the background and to a reference that drains the indexer after every content
// intent (content applied at once, like the tags): after every op the acknowledged
// statuses must match, and at every sync point strict Find and SearchText on the lazy
// side must equal the reference. Content is also checked against a model of the last
// indexed snapshot: IndexContent, rewrites without re-indexing, and Remove.
TEST(LazyIndexDifferentialTest, StrictFindMatchesInlineReference) {
  const std::vector<std::string> kTags = {"UDEF", "USER"};
  const int kValues = 8;
  const int kWords = 6;
  for (uint64_t seed : {7u, 19u, 43u}) {
    auto lazy = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
    auto ref = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
    ASSERT_NE(lazy, nullptr);
    ASSERT_NE(ref, nullptr);
    Random rng(seed);
    std::vector<ObjectId> oids;
    std::map<ObjectId, std::set<int>> indexed;  // Model: words of each indexed snapshot.
    auto check_all = [&] {
      for (int word = 0; word < kWords; word++) {
        std::string term = "word" + std::to_string(word);
        std::vector<ObjectId> expect;
        for (const auto& [oid, words] : indexed) {
          if (words.count(word) != 0) {
            expect.push_back(oid);
          }
        }
        EXPECT_EQ(TextHits(lazy.get(), term), expect) << "seed " << seed << " " << term;
        EXPECT_EQ(TextHits(ref.get(), term, query::Visibility::kRelaxed), expect)
            << "seed " << seed << " " << term;
      }
      for (const std::string& tag : kTags) {
        for (int v = 0; v < kValues; v++) {
          std::string q = tag + ":v" + std::to_string(v);
          EXPECT_EQ(StrictFind(lazy.get(), q), StrictFind(ref.get(), q))
              << "seed " << seed << " query " << q;
        }
      }
      for (const std::string q : {"UDEF:v1 AND USER:v2", "UDEF:v3 AND NOT USER:v0",
                                  "UDEF:v4 AND FULLTEXT:word1",
                                  "FULLTEXT:word2 AND NOT USER:v5"}) {
        EXPECT_EQ(StrictFind(lazy.get(), q), StrictFind(ref.get(), q))
            << "seed " << seed << " query " << q;
      }
    };
    for (int op = 0; op < 400; op++) {
      uint64_t dice = rng.Uniform(115);
      if (!oids.empty() && dice >= 100) {
        // Content: 100-109 rewrite and maybe index, 110-114 remove the object.
        const size_t pick = rng.Uniform(oids.size());
        const ObjectId oid = oids[pick];
        if (dice >= 110) {
          ASSERT_TRUE(lazy->Remove(oid).ok());
          ASSERT_TRUE(ref->Remove(oid).ok());
          ASSERT_TRUE(ref->WaitForIndexing().ok());
          indexed.erase(oid);
          oids.erase(oids.begin() + static_cast<ptrdiff_t>(pick));
        } else {
          std::set<int> words;
          std::string text;
          for (int w = 0; w < 3; w++) {
            int word = static_cast<int>(rng.Uniform(kWords));
            words.insert(word);
            text += "word" + std::to_string(word) + " ";
          }
          ASSERT_TRUE(lazy->Truncate(oid, 0, *lazy->Size(oid)).ok());
          ASSERT_TRUE(ref->Truncate(oid, 0, *ref->Size(oid)).ok());
          ASSERT_TRUE(lazy->Write(oid, 0, text).ok());
          ASSERT_TRUE(ref->Write(oid, 0, text).ok());
          if (!rng.OneIn(4)) {  // Otherwise the index keeps the previous snapshot.
            ASSERT_TRUE(lazy->IndexContent(oid).ok());
            ASSERT_TRUE(ref->IndexContent(oid).ok());
            ASSERT_TRUE(ref->WaitForIndexing().ok());
            indexed[oid] = words;
          }
        }
      } else if (oids.empty() || dice < 10) {
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
    ASSERT_TRUE(lazy->WaitForIndexing().ok());
    for (FileSystem* fs : {lazy.get(), ref.get()}) {
      auto report = CheckFileSystem(fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report->clean()) << "seed " << seed << ": " << report->ToString();
    }
  }
}

// ---------------------------------------------------------------- multi-worker

// Ops are routed to the workers by oid, so the objects' ops spread over both workers
// while each object's ops keep their FIFO order. Index/strip sequences (IndexContent
// of an emptied object strips it) queued before any of them apply, across several
// batches, must net to each object's last version.
TEST(LazyIndexTest, MultiWorkerAppliesPerObjectFifoOrder) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(fs, nullptr);
  std::vector<ObjectId> oids;
  for (size_t i = 0; i < ContentIndexer::kWorkers + 1; i++) {
    auto oid = fs->Create();
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  fs->content_indexer_for_testing()->SetPausedForTesting(true);
  for (int round = 0; round < 100; round++) {
    for (size_t k = 0; k < oids.size(); k++) {
      const std::string text = "mw" + std::to_string(k) + "r" + std::to_string(round);
      ASSERT_TRUE(WriteAndIndex(fs.get(), oids[k], text).ok());
      ASSERT_TRUE(WriteAndIndex(fs.get(), oids[k], "").ok());  // Strip.
    }
  }
  for (size_t k = 0; k < oids.size(); k++) {
    ASSERT_TRUE(WriteAndIndex(fs.get(), oids[k], "final" + std::to_string(k)).ok());
  }
  EXPECT_GT(fs->PendingContentIntents().size(), 256u);  // More than one batch.
  fs->content_indexer_for_testing()->SetPausedForTesting(false);
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  for (size_t k = 0; k < oids.size(); k++) {
    EXPECT_EQ(TextHits(fs.get(), "final" + std::to_string(k)),
              std::vector<ObjectId>{oids[k]});
    EXPECT_TRUE(TextHits(fs.get(), "mw" + std::to_string(k) + "r99").empty());
  }
  ExpectFsckClean(fs.get());
}

// A small queue: reservers block once `capacity` ops are unapplied and resume as the
// workers apply them. Built directly over a full-text store, since a FileSystem's
// indexer always has ContentIndexer::kQueueCapacity slots.
TEST(ContentIndexerTest, SmallQueueBlocksReserversUntilApplied) {
  auto osd = osd::Osd::Create(std::make_shared<MemoryBlockDevice>(kDev), {});
  ASSERT_TRUE(osd.ok()) << osd.status().ToString();
  auto indexes = index::IndexCollection::Mount(osd->get());
  ASSERT_TRUE(indexes.ok()) << indexes.status().ToString();
  index::IndexStore* fulltext = (*indexes)->store(index::kTagFulltext);
  {
    ContentIndexer indexer(fulltext, /*queue_capacity=*/2);
    indexer.SetPausedForTesting(true);
    for (ObjectId oid : {1, 2}) {
      indexer.ReserveSlot();
      indexer.EnqueueReserved({oid, "queued document"});
    }
    std::atomic<bool> reserved{false};
    std::thread blocked([&] {
      indexer.ReserveSlot();
      reserved.store(true);
      indexer.EnqueueReserved({3, "late document"});
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(reserved.load());
    EXPECT_EQ(indexer.PendingCount(), 2u);
    indexer.SetPausedForTesting(false);
    blocked.join();
    ASSERT_TRUE(indexer.WaitForContent().ok());
    EXPECT_EQ(indexer.PendingCount(), 0u);
    indexer.ReserveSlot();
    indexer.EnqueueReserved({2, ""});  // Strip.
    ASSERT_TRUE(indexer.Drain().ok());
  }
  auto queued = fulltext->Lookup("queued");
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(*queued, std::vector<ObjectId>{1});
  auto late = fulltext->Lookup("late");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(*late, std::vector<ObjectId>{3});
}

// ---------------------------------------------------------------- concurrency

// 8 threads against one filesystem: 4 writers storming inline tags and queuing content,
// a strict reader, a relaxed reader, and an fsck loop, with the background indexer
// draining throughout. Registered in the CI ThreadSanitizer job; the assertions here
// are liveness (no deadlock between ReserveSlot / the worker / checkpoints), ack-loss
// (strict reads converge on everything after the storm), and a clean final fsck.
TEST(LazyIndexStressTest, TagStormWithConcurrentReadersAndFsck) {
  auto fs = MakeFs(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(fs, nullptr);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 250;
  std::vector<ObjectId> oids;
  for (int i = 0; i < 32; i++) {
    auto oid = fs->Create();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(fs->Write(*oid, 0, "storm text " + std::to_string(i % 4)).ok());
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
        if (rng.OneIn(8)) {
          if (!fs->IndexContent(oid).ok()) failures.fetch_add(1);
        } else if (rng.OneIn(4)) {
          Status s = fs->RemoveTag(oid, name);
          if (!s.ok() && !s.IsNotFound()) failures.fetch_add(1);
        } else {
          if (!fs->AddTag(oid, name).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Strict reader: tags, and content through the indexer.
    Random rng(2000);
    while (!stop.load()) {
      query::FindOptions o;
      o.visibility = query::Visibility::kStrict;
      auto page = fs->Find(Slice("UDEF:w" + std::to_string(rng.Uniform(4)) + "v" +
                                 std::to_string(rng.Uniform(16))),
                           o);
      if (!page.ok()) failures.fetch_add(1);
      page = fs->Find(Slice("FULLTEXT:storm"), o);
      if (!page.ok()) failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {  // Relaxed reader.
    Random rng(3000);
    while (!stop.load()) {
      query::FindOptions o;
      o.visibility = query::Visibility::kRelaxed;
      auto page = fs->Find(Slice("UDEF:w" + std::to_string(rng.Uniform(4)) + "v" +
                                 std::to_string(rng.Uniform(16)) + " AND FULLTEXT:text"),
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
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  EXPECT_TRUE(fs->PendingContentIntents().empty());

  // Quiesced: the forward postings must now mirror the reverse map exactly.
  ExpectFsckClean(fs.get());
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
