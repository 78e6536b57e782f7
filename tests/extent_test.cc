// Unit + property tests for the counted extent tree (byte-accessible object data).
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/extent/extent_tree.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/pager.h"

namespace hfad {
namespace extent {
namespace {

constexpr uint64_t kHeap = 256 * 1024 * 1024;

class ExtentTreeTest : public ::testing::Test {
 protected:
  ExtentTreeTest()
      : dev_(kPageSize + kHeap),
        pager_(&dev_, 2048),
        alloc_(kPageSize, kHeap),
        tree_(&pager_, &alloc_, 0) {}

  std::string ReadAll() {
    std::string out;
    EXPECT_TRUE(tree_.Read(0, tree_.Size(), &out).ok());
    return out;
  }

  MemoryBlockDevice dev_;
  Pager pager_;
  BuddyAllocator alloc_;
  ExtentTree tree_;
};

TEST_F(ExtentTreeTest, EmptyObject) {
  EXPECT_EQ(tree_.Size(), 0u);
  EXPECT_EQ(tree_.root(), 0u);
  std::string out;
  ASSERT_TRUE(tree_.Read(0, 10, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(tree_.Read(1, 1, &out).ok());  // Past the end.
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, WriteThenRead) {
  ASSERT_TRUE(tree_.Write(0, "hello world").ok());
  EXPECT_EQ(tree_.Size(), 11u);
  EXPECT_EQ(ReadAll(), "hello world");
  std::string out;
  ASSERT_TRUE(tree_.Read(6, 5, &out).ok());
  EXPECT_EQ(out, "world");
}

TEST_F(ExtentTreeTest, ShortReadAtEnd) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  std::string out;
  ASSERT_TRUE(tree_.Read(1, 100, &out).ok());
  EXPECT_EQ(out, "bc");
  ASSERT_TRUE(tree_.Read(3, 10, &out).ok());  // At exactly EOF: empty.
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(tree_.Read(4, 1, &out).ok());  // Beyond EOF: error.
}

TEST_F(ExtentTreeTest, OverwriteMiddle) {
  ASSERT_TRUE(tree_.Write(0, "aaaaaaaaaa").ok());
  ASSERT_TRUE(tree_.Write(3, "BBB").ok());
  EXPECT_EQ(ReadAll(), "aaaBBBaaaa");
  EXPECT_EQ(tree_.Size(), 10u);
}

TEST_F(ExtentTreeTest, WriteExtendsAtEof) {
  ASSERT_TRUE(tree_.Write(0, "12345").ok());
  ASSERT_TRUE(tree_.Write(5, "678").ok());  // Append via write at EOF.
  EXPECT_EQ(ReadAll(), "12345678");
  ASSERT_TRUE(tree_.Write(6, "XYZ").ok());  // Straddles EOF: overwrite + extend.
  EXPECT_EQ(ReadAll(), "123456XYZ");
}

TEST_F(ExtentTreeTest, WritePastEofRejected) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  EXPECT_FALSE(tree_.Write(5, "hole").ok());  // No implicit holes.
}

TEST_F(ExtentTreeTest, InsertIntoMiddle) {
  ASSERT_TRUE(tree_.Write(0, "helloworld").ok());
  ASSERT_TRUE(tree_.Insert(5, ", ").ok());
  EXPECT_EQ(ReadAll(), "hello, world");
  EXPECT_EQ(tree_.Size(), 12u);
}

TEST_F(ExtentTreeTest, InsertAtStartAndEnd) {
  ASSERT_TRUE(tree_.Write(0, "middle").ok());
  ASSERT_TRUE(tree_.Insert(0, "start-").ok());
  ASSERT_TRUE(tree_.Insert(tree_.Size(), "-end").ok());
  EXPECT_EQ(ReadAll(), "start-middle-end");
}

TEST_F(ExtentTreeTest, InsertIntoEmptyObject) {
  ASSERT_TRUE(tree_.Insert(0, "genesis").ok());
  EXPECT_EQ(ReadAll(), "genesis");
}

TEST_F(ExtentTreeTest, InsertBeyondEofRejected) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  EXPECT_FALSE(tree_.Insert(4, "x").ok());
}

TEST_F(ExtentTreeTest, RemoveRangeMiddle) {
  ASSERT_TRUE(tree_.Write(0, "hello, cruel world").ok());
  ASSERT_TRUE(tree_.RemoveRange(5, 6).ok());
  EXPECT_EQ(ReadAll(), std::string("hello, cruel world").erase(5, 6));
}

TEST_F(ExtentTreeTest, RemoveRangePrefixAndSuffix) {
  ASSERT_TRUE(tree_.Write(0, "0123456789").ok());
  ASSERT_TRUE(tree_.RemoveRange(0, 3).ok());
  EXPECT_EQ(ReadAll(), "3456789");
  ASSERT_TRUE(tree_.RemoveRange(4, 3).ok());  // Classic truncate-from-end.
  EXPECT_EQ(ReadAll(), "3456");
}

TEST_F(ExtentTreeTest, RemoveRangeWholeObject) {
  ASSERT_TRUE(tree_.Write(0, "everything").ok());
  ASSERT_TRUE(tree_.RemoveRange(0, 10).ok());
  EXPECT_EQ(tree_.Size(), 0u);
  EXPECT_EQ(ReadAll(), "");
}

TEST_F(ExtentTreeTest, RemoveRangeOutOfBoundsRejected) {
  ASSERT_TRUE(tree_.Write(0, "abc").ok());
  EXPECT_FALSE(tree_.RemoveRange(1, 5).ok());
  EXPECT_FALSE(tree_.RemoveRange(4, 1).ok());
  EXPECT_TRUE(tree_.RemoveRange(1, 0).ok());  // Zero-length is a no-op.
  EXPECT_EQ(ReadAll(), "abc");
}

TEST_F(ExtentTreeTest, LargeWriteChunksIntoExtents) {
  std::string big(1024 * 1024, 'L');
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<char>('A' + (i % 26));
  }
  ASSERT_TRUE(tree_.Write(0, big).ok());
  EXPECT_EQ(tree_.Size(), big.size());
  auto extents = tree_.CountExtents();
  ASSERT_TRUE(extents.ok());
  EXPECT_GE(*extents, big.size() / kMaxExtentSize);  // Chunked.
  EXPECT_EQ(ReadAll(), big);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, InsertIntoLargeObjectPreservesContent) {
  std::string base(512 * 1024, 'x');
  for (size_t i = 0; i < base.size(); i++) {
    base[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(tree_.Write(0, base).ok());
  std::string inserted(4096, 'I');
  uint64_t pos = base.size() / 2 + 37;  // Unaligned middle offset.
  ASSERT_TRUE(tree_.Insert(pos, inserted).ok());
  std::string expect = base.substr(0, pos) + inserted + base.substr(pos);
  EXPECT_EQ(tree_.Size(), expect.size());
  EXPECT_EQ(ReadAll(), expect);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, RemoveRangeAcrossManyExtents) {
  std::string base(512 * 1024, 'x');
  for (size_t i = 0; i < base.size(); i++) {
    base[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(tree_.Write(0, base).ok());
  // Remove a 200 KiB range spanning multiple 64 KiB extents, unaligned ends.
  uint64_t off = 100 * 1024 + 13;
  uint64_t len = 200 * 1024 + 5;
  ASSERT_TRUE(tree_.RemoveRange(off, len).ok());
  std::string expect = base.substr(0, off) + base.substr(off + len);
  EXPECT_EQ(ReadAll(), expect);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, ClearFreesAllStorage) {
  std::string big(2 * 1024 * 1024, 'C');
  ASSERT_TRUE(tree_.Write(0, big).ok());
  EXPECT_GT(alloc_.allocated_bytes(), big.size() / 2);
  ASSERT_TRUE(tree_.Clear().ok());
  EXPECT_EQ(tree_.Size(), 0u);
  EXPECT_EQ(tree_.root(), 0u);
  EXPECT_EQ(alloc_.allocation_count(), 0u);
  // Reusable after clear.
  ASSERT_TRUE(tree_.Write(0, "again").ok());
  EXPECT_EQ(ReadAll(), "again");
}

TEST_F(ExtentTreeTest, RemoveRangeFreesStorage) {
  std::string big(4 * 1024 * 1024, 'R');
  ASSERT_TRUE(tree_.Write(0, big).ok());
  uint64_t before = alloc_.allocated_bytes();
  ASSERT_TRUE(tree_.RemoveRange(0, big.size() / 2).ok());
  EXPECT_LT(alloc_.allocated_bytes(), before);
}

TEST_F(ExtentTreeTest, PersistsAcrossReopen) {
  std::string content;
  for (int i = 0; i < 1000; i++) {
    content += "line-" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(tree_.Write(0, content).ok());
  ASSERT_TRUE(tree_.Insert(5, "INSERTED").ok());
  uint64_t root = tree_.root();
  ASSERT_TRUE(pager_.Flush().ok());
  ASSERT_TRUE(pager_.DropCacheForTesting().ok());

  ExtentTree reopened(&pager_, &alloc_, root);
  std::string expect = content.substr(0, 5) + "INSERTED" + content.substr(5);
  EXPECT_EQ(reopened.Size(), expect.size());
  std::string out;
  ASSERT_TRUE(reopened.Read(0, reopened.Size(), &out).ok());
  EXPECT_EQ(out, expect);
  ASSERT_TRUE(reopened.CheckInvariants().ok());
}

TEST_F(ExtentTreeTest, ManySmallInsertsAtFrontForceDeepTree) {
  // Repeated front insertion is the adversarial case for offset-keyed maps; the counted
  // tree must stay O(log n) and correct.
  std::string expect;
  for (int i = 0; i < 3000; i++) {
    std::string piece = std::to_string(i % 10);
    ASSERT_TRUE(tree_.Insert(0, piece).ok()) << i;
    expect = piece + expect;
  }
  EXPECT_EQ(ReadAll(), expect);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

// Property test: mirror a std::string model through random byte operations.
struct ExtentWorkload {
  uint64_t seed;
  // 64-bit so the struct has no padding: gtest names each case by the struct's raw
  // bytes, and implicit padding (uninitialised) gave the case a new name on every run.
  int64_t ops;
  uint64_t max_piece;  // Largest single write/insert.
};
static_assert(std::has_unique_object_representations_v<ExtentWorkload>);

class ExtentTreePropertyTest : public ::testing::TestWithParam<ExtentWorkload> {};

TEST_P(ExtentTreePropertyTest, MatchesStringModel) {
  const ExtentWorkload p = GetParam();
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 2048);
  BuddyAllocator alloc(kPageSize, kHeap);
  ExtentTree tree(&pager, &alloc, 0);
  std::string model;
  Random rng(p.seed);

  for (int op = 0; op < p.ops; op++) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 3) {  // Write at random legal offset.
      uint64_t off = model.empty() ? 0 : rng.Uniform(model.size() + 1);
      std::string data = rng.NextString(rng.Range(1, p.max_piece));
      ASSERT_TRUE(tree.Write(off, data).ok());
      if (off + data.size() > model.size()) {
        model.resize(off + data.size());
      }
      model.replace(off, data.size(), data);
    } else if (action < 6) {  // Insert at random offset.
      uint64_t off = model.empty() ? 0 : rng.Uniform(model.size() + 1);
      std::string data = rng.NextString(rng.Range(1, p.max_piece));
      ASSERT_TRUE(tree.Insert(off, data).ok());
      model.insert(off, data);
    } else if (action < 8 && !model.empty()) {  // RemoveRange.
      uint64_t off = rng.Uniform(model.size());
      uint64_t len = rng.Range(1, model.size() - off);
      ASSERT_TRUE(tree.RemoveRange(off, len).ok());
      model.erase(off, len);
    } else if (!model.empty()) {  // Random read.
      uint64_t off = rng.Uniform(model.size());
      size_t n = rng.Range(1, p.max_piece);
      std::string out;
      ASSERT_TRUE(tree.Read(off, n, &out).ok());
      ASSERT_EQ(out, model.substr(off, n));
    }
    ASSERT_EQ(tree.Size(), model.size());
  }
  std::string all;
  ASSERT_TRUE(tree.Read(0, tree.Size(), &all).ok());
  ASSERT_EQ(all, model);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ExtentTreePropertyTest,
    ::testing::Values(ExtentWorkload{101, 1500, 64},           // Tiny pieces, many ops.
                      ExtentWorkload{202, 600, 4096},          // Page-ish pieces.
                      ExtentWorkload{303, 200, 150 * 1024},    // Pieces above kMaxExtentSize.
                      ExtentWorkload{404, 1000, 700}));        // Mixed.

}  // namespace
}  // namespace extent
}  // namespace hfad
