// Unit, integration, and crash-recovery tests for the object-based storage device.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/osd/osd.h"
#include "src/storage/block_device.h"
#include "tests/crash_harness.h"

namespace hfad {
namespace osd {
namespace {

constexpr uint64_t kDev = 64 * 1024 * 1024;

std::unique_ptr<Osd> MakeOsd(std::shared_ptr<BlockDevice> dev, OsdOptions opts = {}) {
  auto r = Osd::Create(std::move(dev), opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(OsdTest, CreateFormatsAVolume) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_NE(osd, nullptr);
  EXPECT_EQ(osd->object_count(), 0u);
}

TEST(OsdTest, DeviceTooSmallRejected) {
  auto r = Osd::Create(std::make_shared<MemoryBlockDevice>(64 * 1024), OsdOptions{});
  EXPECT_FALSE(r.ok());
}

TEST(OsdTest, CreateObjectAssignsFreshIds) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  std::set<ObjectId> ids;
  for (int i = 0; i < 100; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    EXPECT_TRUE(ids.insert(*oid).second) << "duplicate oid " << *oid;
  }
  EXPECT_EQ(osd->object_count(), 100u);
}

TEST(OsdTest, WriteReadRoundTrip) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "hello object world").ok());
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 6, 6, &out).ok());
  EXPECT_EQ(out, "object");
  auto size = osd->Size(*oid);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 18u);
}

TEST(OsdTest, OpsOnMissingObjectFail) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  std::string out;
  EXPECT_TRUE(osd->Read(999, 0, 1, &out).IsNotFound());
  EXPECT_TRUE(osd->Write(999, 0, "x").IsNotFound());
  EXPECT_TRUE(osd->Insert(999, 0, "x").IsNotFound());
  EXPECT_TRUE(osd->RemoveRange(999, 0, 1).IsNotFound());
  EXPECT_TRUE(osd->DeleteObject(999).IsNotFound());
  EXPECT_TRUE(osd->Stat(999).status().IsNotFound());
  EXPECT_FALSE(osd->Exists(999));
}

TEST(OsdTest, InsertAndRemoveRange) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "helloworld").ok());
  ASSERT_TRUE(osd->Insert(*oid, 5, ", ").ok());
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "hello, world");
  ASSERT_TRUE(osd->RemoveRange(*oid, 5, 2).ok());
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "helloworld");
}

TEST(OsdTest, TruncateGrowZeroFillsAndShrinkDrops) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "abcdef").ok());
  ASSERT_TRUE(osd->Truncate(*oid, 10).ok());
  std::string out;
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, std::string("abcdef") + std::string(4, '\0'));
  ASSERT_TRUE(osd->Truncate(*oid, 3).ok());
  ASSERT_TRUE(osd->Read(*oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "abc");
}

TEST(OsdTest, DeleteReleasesStorage) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  uint64_t baseline = osd->heap_allocated_bytes();
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, std::string(1024 * 1024, 'D')).ok());
  EXPECT_GT(osd->heap_allocated_bytes(), baseline + 512 * 1024);
  ASSERT_TRUE(osd->DeleteObject(*oid).ok());
  EXPECT_FALSE(osd->Exists(*oid));
  EXPECT_LE(osd->heap_allocated_bytes(), baseline + 64 * 1024);
}

TEST(OsdTest, StatReportsMetadata) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  auto meta0 = osd->Stat(*oid);
  ASSERT_TRUE(meta0.ok());
  EXPECT_EQ(meta0->size, 0u);
  EXPECT_GT(meta0->ctime_ns, 0u);

  ASSERT_TRUE(osd->Write(*oid, 0, "0123456789").ok());
  auto meta1 = osd->Stat(*oid);
  ASSERT_TRUE(meta1.ok());
  EXPECT_EQ(meta1->size, 10u);
  EXPECT_GE(meta1->mtime_ns, meta0->mtime_ns);

  ASSERT_TRUE(osd->SetAttributes(*oid, 0755, 1000, 100).ok());
  auto meta2 = osd->Stat(*oid);
  ASSERT_TRUE(meta2.ok());
  EXPECT_EQ(meta2->mode, 0755u);
  EXPECT_EQ(meta2->uid, 1000u);
  EXPECT_EQ(meta2->gid, 100u);
  EXPECT_EQ(meta2->size, 10u);  // SetAttributes does not touch size.
}

TEST(OsdTest, ScanObjectsVisitsInOidOrder) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  std::vector<ObjectId> created;
  for (int i = 0; i < 20; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    created.push_back(*oid);
  }
  ASSERT_TRUE(osd->DeleteObject(created[5]).ok());
  std::vector<ObjectId> seen;
  ASSERT_TRUE(osd->ScanObjects([&](ObjectId oid, const ObjectMeta&) {
    seen.push_back(oid);
    return true;
  }).ok());
  EXPECT_EQ(seen.size(), 19u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::count(seen.begin(), seen.end(), created[5]), 0);
}

TEST(OsdTest, ScanObjectsSeeksToStartKey) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(osd->CreateObject().ok());  // Oids 1..10.
  }
  std::vector<ObjectId> seen;
  ASSERT_TRUE(osd->ScanObjects(7, [&](ObjectId oid, const ObjectMeta&) {
                   seen.push_back(oid);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<ObjectId>{7, 8, 9, 10}));
  seen.clear();
  ASSERT_TRUE(osd->ScanObjects(11, [&](ObjectId oid, const ObjectMeta&) {
                   seen.push_back(oid);
                   return true;
                 })
                  .ok());
  EXPECT_TRUE(seen.empty());
}

// ---- Close status (shutdown errors must not vanish) ----

TEST(OsdCloseTest, CleanCloseRecordsOk) {
  stats::ResetAll();
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(osd->CreateObject().ok());
  EXPECT_TRUE(osd->Close().ok());
  EXPECT_TRUE(osd->last_close_status().ok());
  osd.reset();
  EXPECT_EQ(stats::Get(stats::Counter::kOsdCloseErrors), 0u);
}

TEST(OsdCloseTest, FailedFinalCheckpointIsRecordedAndCounted) {
  stats::ResetAll();
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  auto osd = MakeOsd(faulty);
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(osd->Write(*oid, 0, "will not checkpoint").ok());
  faulty->SetWriteBudget(0);  // The device dies before shutdown.
  Status s = osd->Close();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(osd->last_close_status().ok());
  EXPECT_EQ(stats::Get(stats::Counter::kOsdCloseErrors), 1u);
  // The destructor reuses the recorded outcome — no double count, no second checkpoint.
  osd.reset();
  EXPECT_EQ(stats::Get(stats::Counter::kOsdCloseErrors), 1u);
}

// ---- Threshold-triggered checkpoints ----

// A tag-storm-sized load against a deliberately tiny journal: the occupancy kick keeps
// checkpoints running in the background so ops keep succeeding long past the point the
// journal would have filled many times over.
TEST(OsdCheckpointTest, ThresholdCheckpointsAbsorbSustainedLoad) {
  OsdOptions opts;
  opts.journal_size = 256 * 1024;
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  auto osd = MakeOsd(dev, opts);
  const std::string payload(512, 'p');
  std::vector<ObjectId> oids;
  for (int i = 0; i < 2000; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok()) << "op " << i;
    ASSERT_TRUE(osd->Write(*oid, 0, payload).ok()) << "op " << i;
    oids.push_back(*oid);
  }
  ASSERT_TRUE(osd->Close().ok());
  osd.reset();
  auto reopened = Osd::Open(dev, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->object_count(), oids.size());
  std::string out;
  ASSERT_TRUE((*reopened)->Read(oids.back(), 0, payload.size(), &out).ok());
  EXPECT_EQ(out, payload);
}

// ---- Checkpoint-boundary crash sweep (torn WriteBatch fault injection) ----
//
// Every op below is Sync()ed (acknowledged durable) before the crash, then a checkpoint
// is cut off after `budget` device writes with the final write torn in half. Whatever
// the tear position — mid page-image epilogue, mid in-place WriteBatch, before the
// superblock, before the journal reset — recovery must replay exactly the covered
// watermark: every acknowledged op, never a torn suffix.
// Parameterized over (write budget, async): the sweep runs once with the IoEngine
// disabled (io_threads = 0, the pre-async sync path) and once through the engine.
// The engine issues the same device ops in the same order, so every tear position
// must behave identically on both paths.
class CheckpointTearTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CheckpointTearTest, SyncedOpsSurviveACheckpointTornAtAnyWrite) {
  const int64_t budget = std::get<0>(GetParam());
  const bool async = std::get<1>(GetParam());
  OsdOptions opts;
  if (!async) opts.io_threads = 0;
  std::vector<std::pair<ObjectId, std::string>> acked;
  test::RunTornWriteCrash(
      kDev, budget,
      [&](const std::shared_ptr<FaultyBlockDevice>& faulty, test::CrashPoint* point) {
        auto r = Osd::Create(faulty, opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        auto osd = std::move(r).value();
        for (int i = 0; i < 8; i++) {
          auto oid = osd->CreateObject();
          ASSERT_TRUE(oid.ok());
          std::string payload = "acknowledged payload #" + std::to_string(i) +
                                std::string(200 + 50 * i, 'a' + static_cast<char>(i));
          ASSERT_TRUE(osd->Write(*oid, 0, payload).ok());
          acked.emplace_back(*oid, payload);
        }
        ASSERT_TRUE(osd->Sync().ok());  // Covered by the watermark from here on.

        point->Tear();
        (void)osd->Checkpoint();  // May fail anywhere, including mid-WriteBatch.
        point->Crash();           // Hard crash: the destructor reaches nothing.
      },
      [&](const std::shared_ptr<MemoryBlockDevice>& base) {
        auto reopened = Osd::Open(base, opts);
        ASSERT_TRUE(reopened.ok())
            << "budget " << budget << ": " << reopened.status().ToString();
        for (const auto& [oid, payload] : acked) {
          std::string out;
          ASSERT_TRUE((*reopened)->Read(oid, 0, payload.size() + 16, &out).ok())
              << "budget " << budget << " oid " << oid;
          EXPECT_EQ(out, payload) << "budget " << budget << " oid " << oid;
        }
        EXPECT_EQ((*reopened)->object_count(), acked.size());
      });
}

INSTANTIATE_TEST_SUITE_P(TearAtEveryWrite, CheckpointTearTest,
                         ::testing::Combine(::testing::Range(0, 14),
                                            ::testing::Bool()));

TEST(OsdTest, PersistsAcrossCleanReopen) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  ObjectId oid;
  {
    auto osd = MakeOsd(dev);
    auto r = osd->CreateObject();
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE(osd->Write(oid, 0, "survives reopen").ok());
    ASSERT_TRUE(osd->Checkpoint().ok());
  }
  auto reopened = Osd::Open(dev, OsdOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string out;
  ASSERT_TRUE((*reopened)->Read(oid, 0, 100, &out).ok());
  EXPECT_EQ(out, "survives reopen");
  EXPECT_EQ((*reopened)->object_count(), 1u);
}

TEST(OsdTest, NamedRootsPersist) {
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  {
    auto osd = MakeOsd(dev);
    auto missing = osd->GetNamedRoot("fulltext");
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(*missing, 0u);
    ASSERT_TRUE(osd->SetNamedRoot("fulltext", 123456).ok());
    ASSERT_TRUE(osd->SetNamedRoot("posix", 789).ok());
    ASSERT_TRUE(osd->Checkpoint().ok());
  }
  auto reopened = Osd::Open(dev, OsdOptions{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->GetNamedRoot("fulltext"), 123456u);
  EXPECT_EQ(*(*reopened)->GetNamedRoot("posix"), 789u);
}

// ---------------------------------------------------------------- crash recovery

// Crash simulation: the Osd runs on a FaultyBlockDevice; "crashing" sets the write budget
// to zero so nothing (including the destructor's best-effort checkpoint) reaches the
// device afterward, then the volume is reopened from the underlying memory device.
class CrashHarness {
 public:
  explicit CrashHarness(OsdOptions opts = MakeDefaultOptions())
      : base_(std::make_shared<MemoryBlockDevice>(kDev)),
        faulty_(std::make_shared<FaultyBlockDevice>(base_)),
        opts_(opts) {
    auto r = Osd::Create(faulty_, opts_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    osd_ = std::move(r).value();
  }

  static OsdOptions MakeDefaultOptions() {
    OsdOptions opts;
    opts.group_commit = false;  // Every op durable on return.
    return opts;
  }

  Osd* osd() { return osd_.get(); }

  // Crash and reopen. Returns the recovered Osd (running directly on the base device).
  std::unique_ptr<Osd> CrashAndRecover(Osd::ForeignReplayFn replay = nullptr) {
    faulty_->SetWriteBudget(0);
    osd_.reset();  // Destructor checkpoint fails against the dead device.
    auto r = Osd::Open(base_, opts_, std::move(replay));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : nullptr;
  }

 private:
  std::shared_ptr<MemoryBlockDevice> base_;
  std::shared_ptr<FaultyBlockDevice> faulty_;
  OsdOptions opts_;
  std::unique_ptr<Osd> osd_;
};

TEST(OsdRecoveryTest, ReplaysLoggedOpsAfterCrash) {
  CrashHarness h;
  auto ra = h.osd()->CreateObject();
  auto rb = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ObjectId a = *ra, b = *rb;
  ASSERT_TRUE(h.osd()->Write(a, 0, "object a data").ok());
  ASSERT_TRUE(h.osd()->Write(b, 0, "object b data").ok());
  ASSERT_TRUE(h.osd()->Insert(a, 6, "<INS>").ok());
  ASSERT_TRUE(h.osd()->RemoveRange(b, 0, 7).ok());
  ASSERT_TRUE(h.osd()->SetAttributes(a, 0700, 42, 43).ok());

  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(a, 0, 100, &out).ok());
  EXPECT_EQ(out, "object<INS> a data");
  ASSERT_TRUE(osd->Read(b, 0, 100, &out).ok());
  EXPECT_EQ(out, "b data");
  auto meta = osd->Stat(a);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->mode, 0700u);
  EXPECT_EQ(meta->uid, 42u);
}

TEST(OsdRecoveryTest, UnsyncedGroupCommitOpsMayVanishButStateIsConsistent) {
  OsdOptions opts;
  opts.group_commit = true;
  CrashHarness h(opts);
  auto ra = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ObjectId a = *ra;
  ASSERT_TRUE(h.osd()->Write(a, 0, "synced payload").ok());
  ASSERT_TRUE(h.osd()->Sync().ok());  // Everything so far is durable.
  ASSERT_TRUE(h.osd()->Write(a, 0, "UNSYNCED").ok());  // Overwrite: forces its own sync.
  auto rb = h.osd()->CreateObject();  // Not synced: may vanish.
  ASSERT_TRUE(rb.ok());

  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(a, 0, 100, &out).ok());
  // The overwrite forced a journal sync (it clobbers live bytes in place), so it must
  // have survived.
  ASSERT_GE(out.size(), 8u);
  EXPECT_EQ(out.substr(0, 8), "UNSYNCED");
}

TEST(OsdRecoveryTest, CreateDeleteCycleRecovers) {
  CrashHarness h;
  std::vector<ObjectId> kept;
  for (int i = 0; i < 30; i++) {
    auto oid = h.osd()->CreateObject();
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(h.osd()->Write(*oid, 0, "obj " + std::to_string(*oid)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(h.osd()->DeleteObject(*oid).ok());
    } else {
      kept.push_back(*oid);
    }
  }
  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  EXPECT_EQ(osd->object_count(), kept.size());
  for (ObjectId oid : kept) {
    std::string out;
    ASSERT_TRUE(osd->Read(oid, 0, 100, &out).ok()) << oid;
    EXPECT_EQ(out, "obj " + std::to_string(oid));
  }
  // New objects get fresh ids, never reusing replayed ones.
  auto fresh = osd->CreateObject();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, kept.back());
}

TEST(OsdRecoveryTest, RecoveryAfterCheckpointReplaysOnlySuffix) {
  CrashHarness h;
  auto ra = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ObjectId a = *ra;
  ASSERT_TRUE(h.osd()->Write(a, 0, "checkpointed").ok());
  ASSERT_TRUE(h.osd()->Checkpoint().ok());
  ASSERT_TRUE(h.osd()->Write(a, 12, " plus suffix").ok());

  auto osd = h.CrashAndRecover();
  ASSERT_NE(osd, nullptr);
  std::string out;
  ASSERT_TRUE(osd->Read(a, 0, 100, &out).ok());
  EXPECT_EQ(out, "checkpointed plus suffix");
}

TEST(OsdRecoveryTest, ForeignRecordsReplayInOrder) {
  CrashHarness h;
  ASSERT_TRUE(h.osd()->AppendForeign("tag-op-1").ok());
  auto ra = h.osd()->CreateObject();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(h.osd()->AppendForeign("tag-op-2").ok());
  ASSERT_TRUE(h.osd()->Sync().ok());

  std::vector<std::string> replayed;
  auto osd = h.CrashAndRecover([&](Osd*, Slice payload) {
    replayed.push_back(payload.ToString());
    return Status::Ok();
  });
  ASSERT_NE(osd, nullptr);
  EXPECT_EQ(replayed, (std::vector<std::string>{"tag-op-1", "tag-op-2"}));
  EXPECT_TRUE(osd->Exists(*ra));
}

TEST(OsdRecoveryTest, RepeatedCrashRecoverCyclesConvergeToSameState) {
  Random rng(77);
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  OsdOptions opts;
  opts.group_commit = false;
  std::vector<ObjectId> live;
  std::map<ObjectId, std::string> model;
  {
    auto faulty = std::make_shared<FaultyBlockDevice>(base);
    auto created = Osd::Create(faulty, opts);
    ASSERT_TRUE(created.ok());
    auto osd = std::move(created).value();
    for (int i = 0; i < 50; i++) {
      auto oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      std::string data = rng.NextString(rng.Range(1, 4000));
      ASSERT_TRUE(osd->Write(*oid, 0, data).ok());
      model[*oid] = data;
    }
    faulty->SetWriteBudget(0);
  }
  // Three crash/recover cycles; state must be identical each time.
  for (int cycle = 0; cycle < 3; cycle++) {
    auto faulty = std::make_shared<FaultyBlockDevice>(base);
    auto r = Osd::Open(faulty, opts);
    ASSERT_TRUE(r.ok()) << "cycle " << cycle << ": " << r.status().ToString();
    auto osd = std::move(r).value();
    EXPECT_EQ(osd->object_count(), model.size());
    for (const auto& [oid, data] : model) {
      std::string out;
      ASSERT_TRUE(osd->Read(oid, 0, data.size() + 10, &out).ok());
      ASSERT_EQ(out, data) << "cycle " << cycle << " oid " << oid;
    }
    if (cycle < 2) {
      faulty->SetWriteBudget(0);  // Crash again (even mid-recovery checkpoint is fine).
    } else {
      ASSERT_TRUE(osd->Checkpoint().ok());
    }
  }
}

// ---------------------------------------------------------------- concurrency

TEST(OsdConcurrencyTest, ParallelOpsOnDistinctObjects) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 100;
  std::vector<ObjectId> oids(kThreads);
  for (int t = 0; t < kThreads; t++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oids[t] = *oid;
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&osd, &oids, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string chunk = "t" + std::to_string(t) + "op" + std::to_string(i) + ";";
        auto size = osd->Size(oids[t]);
        ASSERT_TRUE(size.ok());
        ASSERT_TRUE(osd->Write(oids[t], *size, chunk).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; t++) {
    std::string out;
    ASSERT_TRUE(osd->Read(oids[t], 0, 1 << 20, &out).ok());
    // Every chunk this thread wrote must be present, in order.
    size_t pos = 0;
    for (int i = 0; i < kOpsPerThread; i++) {
      std::string chunk = "t" + std::to_string(t) + "op" + std::to_string(i) + ";";
      size_t found = out.find(chunk, pos);
      ASSERT_NE(found, std::string::npos) << "thread " << t << " op " << i;
      pos = found + chunk.size();
    }
  }
}

// Shared-object stress for the sharded object locks: every thread mutates and reads the
// SAME small object set, so writers on one object serialize through its shard while
// readers take it shared, and distinct objects proceed independently. The end state
// must pass CheckObject on every object, and each object's byte content must be one of
// the values some writer actually wrote (no torn or interleaved pages).
TEST(OsdConcurrencyTest, OverlappingWritersAndReadersStayConsistent) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  constexpr int kObjects = 12;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 150;
  std::vector<ObjectId> oids(kObjects);
  for (int i = 0; i < kObjects; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    oids[i] = *oid;
    ASSERT_TRUE(osd->Write(oids[i], 0, "seed----").ok());
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&osd, &oids, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        ObjectId oid = oids[(t * 5 + i * 3) % kObjects];
        if ((t + i) % 4 == 0) {
          // Fixed-width overwrite at offset 0: the whole value is one page, so any
          // interleaving of writers leaves one complete writer's value behind.
          std::string body = "w" + std::to_string(t % 10) + std::to_string(i % 10) +
                             "-----";
          ASSERT_TRUE(osd->Write(oid, 0, body).ok());
        } else if ((t + i) % 4 == 1) {
          auto meta = osd->Stat(oid);
          ASSERT_TRUE(meta.ok());
        } else if ((t + i) % 4 == 2) {
          auto size = osd->Size(oid);
          ASSERT_TRUE(size.ok());
          ASSERT_GE(*size, 8u);
        } else {
          std::string out;
          ASSERT_TRUE(osd->Read(oid, 0, 8, &out).ok());
          ASSERT_EQ(out.size(), 8u);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int i = 0; i < kObjects; i++) {
    Status s = osd->CheckObject(oids[i]);
    EXPECT_TRUE(s.ok()) << "object " << oids[i] << ": " << s.ToString();
    std::string out;
    ASSERT_TRUE(osd->Read(oids[i], 0, 8, &out).ok());
    ASSERT_EQ(out.size(), 8u);
    // Either still the seed or exactly one writer's 8-byte record.
    EXPECT_TRUE(out == "seed----" || (out[0] == 'w' && out.substr(3, 5) == "-----"))
        << "torn content: '" << out << "'";
  }
}

TEST(OsdConcurrencyTest, CheckpointsInterleaveWithWriters) {
  auto osd = MakeOsd(std::make_shared<MemoryBlockDevice>(kDev));
  auto oid = osd->CreateObject();
  ASSERT_TRUE(oid.ok());
  std::atomic<bool> stop{false};
  std::thread checkpointer([&] {
    while (!stop.load()) {
      ASSERT_TRUE(osd->Checkpoint().ok());
    }
  });
  for (int i = 0; i < 300; i++) {
    auto size = osd->Size(*oid);
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(osd->Write(*oid, *size, "x").ok());
  }
  stop.store(true);
  checkpointer.join();
  auto size = osd->Size(*oid);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 300u);
}

// ---------------------------------------------------------------- property sweep

struct OsdWorkload {
  uint64_t seed;
  bool journaling;
  bool group_commit;
  int ops;
};

// Gives each case a stable name. Without it gtest prints the struct's raw bytes, padding
// included, so the name of a case changed from run to run.
void PrintTo(const OsdWorkload& w, std::ostream* os) {
  *os << "seed " << w.seed << (w.journaling ? " journaled" : " unjournaled")
      << (w.group_commit ? " group-commit " : " sync ") << w.ops << " ops";
}

class OsdPropertyTest : public ::testing::TestWithParam<OsdWorkload> {};

// Random op mix mirrored against in-memory models; final state must match after a clean
// reopen as well.
TEST_P(OsdPropertyTest, MatchesModel) {
  const OsdWorkload p = GetParam();
  auto dev = std::make_shared<MemoryBlockDevice>(kDev);
  OsdOptions opts;
  opts.journaling = p.journaling;
  opts.group_commit = p.group_commit;
  auto osd = MakeOsd(dev, opts);
  Random rng(p.seed);
  std::map<ObjectId, std::string> model;

  for (int op = 0; op < p.ops; op++) {
    int action = static_cast<int>(rng.Uniform(12));
    if (action < 3 || model.empty()) {
      auto oid = osd->CreateObject();
      ASSERT_TRUE(oid.ok());
      model[*oid] = "";
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ObjectId oid = it->first;
      std::string& m = it->second;
      if (action < 6) {  // Write.
        uint64_t off = m.empty() ? 0 : rng.Uniform(m.size() + 1);
        std::string data = rng.NextString(rng.Range(1, 2000));
        ASSERT_TRUE(osd->Write(oid, off, data).ok());
        if (off + data.size() > m.size()) {
          m.resize(off + data.size());
        }
        m.replace(off, data.size(), data);
      } else if (action < 8) {  // Insert.
        uint64_t off = m.empty() ? 0 : rng.Uniform(m.size() + 1);
        std::string data = rng.NextString(rng.Range(1, 500));
        ASSERT_TRUE(osd->Insert(oid, off, data).ok());
        m.insert(off, data);
      } else if (action < 9 && !m.empty()) {  // RemoveRange.
        uint64_t off = rng.Uniform(m.size());
        uint64_t len = rng.Range(1, m.size() - off);
        ASSERT_TRUE(osd->RemoveRange(oid, off, len).ok());
        m.erase(off, len);
      } else if (action < 10) {  // Read and compare.
        std::string out;
        ASSERT_TRUE(osd->Read(oid, 0, m.size() + 10, &out).ok());
        ASSERT_EQ(out, m);
      } else if (action < 11) {  // Delete.
        ASSERT_TRUE(osd->DeleteObject(oid).ok());
        model.erase(it);
      } else {  // Truncate.
        uint64_t new_size = rng.Uniform(m.size() + 100);
        ASSERT_TRUE(osd->Truncate(oid, new_size).ok());
        m.resize(new_size, '\0');
      }
    }
  }
  ASSERT_TRUE(osd->Checkpoint().ok());
  osd.reset();

  auto reopened = Osd::Open(dev, opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->object_count(), model.size());
  for (const auto& [oid, data] : model) {
    std::string out;
    ASSERT_TRUE((*reopened)->Read(oid, 0, data.size() + 10, &out).ok()) << oid;
    ASSERT_EQ(out, data) << "oid " << oid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, OsdPropertyTest,
    ::testing::Values(OsdWorkload{1, true, true, 800},    // Journaled, group commit.
                      OsdWorkload{2, true, false, 400},   // Journaled, sync per op.
                      OsdWorkload{3, false, false, 800},  // No journal.
                      OsdWorkload{4, true, true, 1500})); // Longer journaled run.

// Fault sweep: a two-read transient burst injected at every point in the device read
// stream is invisible — the default RetryPolicy (3 attempts) absorbs it, every object
// reads back byte-exact, and the volume never leaves healthy. A tiny page cache forces
// real device reads so the sweep actually exercises the miss path, not the cache.
TEST(OsdFaultSweepTest, TransientReadBurstsAtEveryOffsetAreAbsorbed) {
  auto base = std::make_shared<MemoryBlockDevice>(kDev);
  auto faulty = std::make_shared<FaultyBlockDevice>(base);
  OsdOptions opts;
  opts.io_threads = 0;
  opts.pager_capacity_pages = 16;
  auto osd = MakeOsd(faulty, opts);
  ASSERT_NE(osd, nullptr);

  std::vector<ObjectId> oids;
  std::vector<std::string> payloads;
  for (int i = 0; i < 24; i++) {
    auto oid = osd->CreateObject();
    ASSERT_TRUE(oid.ok());
    payloads.push_back("sweep-payload-" + std::to_string(i) +
                       std::string(6000, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(osd->Write(*oid, 0, payloads.back()).ok());
    oids.push_back(*oid);
  }
  ASSERT_TRUE(osd->Checkpoint().ok());

  test::RunReadFaultSweep(faulty.get(), /*max_after=*/40, /*fail_count=*/2,
                          [&](int64_t after) {
                            std::string out;
                            for (size_t i = 0; i < oids.size(); i++) {
                              Status s = osd->Read(oids[i], 0, payloads[i].size(), &out);
                              ASSERT_TRUE(s.ok()) << "after=" << after << " oid#" << i
                                                  << ": " << s.ToString();
                              ASSERT_EQ(out, payloads[i]) << "after=" << after;
                            }
                          });
  EXPECT_EQ(osd->health_state(), HealthState::kHealthy);
}

}  // namespace
}  // namespace osd
}  // namespace hfad
