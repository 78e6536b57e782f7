// Slotted-page B+tree over the pager — hFAD's replacement for Berkeley DB btrees (§3.4).
//
// One BTree instance is one persistent ordered map from byte-string keys to byte-string
// values. hFAD uses these for: the object table (OID -> object record), per-object metadata,
// every string index store (POSIX paths, USER/UDEF/APP tags), term dictionaries for the
// full-text engine, and directories in the hierarchical baseline.
//
// Layout: 4 KiB slotted pages. Leaf pages are doubly linked for range scans. Values larger
// than kMaxInlineValue spill into buddy-allocated overflow extents. Keys are limited to
// kMaxKeySize (names and tags are short; object data goes through the extent tree, not here).
//
// Deletion uses the "merge empty pages only" discipline (as LMDB does): pages may become
// underfull but are reclaimed as soon as they are empty; interior separators are routing
// lower-bounds and may be stale, which never affects correctness.
//
// Concurrency: a reader/writer lock per tree. Cursors must not be used concurrently with
// writes to the same tree. Cross-tree operations need no shared lock — this is precisely the
// paper's §2.3 point: independent indexes have no shared ancestor to synchronize through.
#ifndef HFAD_SRC_BTREE_BTREE_H_
#define HFAD_SRC_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/pager.h"

namespace hfad {
namespace btree {

constexpr size_t kMaxKeySize = 512;
// Values above this spill to overflow extents. The bound is chosen so that twice the
// maximal encoded cell (key + value + framing + slot) fits in a page, which guarantees a
// byte-aware page split always has a legal split point.
constexpr size_t kMaxInlineValue = 1500;

class BTree {
 public:
  // root_offset == 0 opens an empty tree; the root page is allocated on first insert.
  // The caller owns pager/allocator and must persist root() when it changes.
  BTree(Pager* pager, BuddyAllocator* allocator, uint64_t root_offset);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Current root page offset (0 while empty). Persist this to reopen the tree.
  uint64_t root() const;

  // Point lookup. NotFound if absent.
  Result<std::string> Get(Slice key) const;
  bool Contains(Slice key) const;

  // Insert or overwrite. `inserted`, when non-null, reports whether the key was newly
  // inserted (vs. an overwrite) — callers maintaining external cardinality caches get
  // the answer without a separate Count() round-trip.
  Status Put(Slice key, Slice value, bool* inserted = nullptr);

  // Sorted-batch insert: entries must be in ascending key order (adjacent duplicates
  // are legal; the later one wins, matching a Put sequence). Takes the tree lock and
  // the pager mutation hold once for the whole batch, and reuses the located leaf
  // across consecutive entries while interior routing permits, so a sorted batch costs
  // far fewer descents than the equivalent Put loop. A leaf that splits while more of
  // the batch is still to land in it splits so its pages balance once that run has
  // landed, so runs fill pages instead of leaving half-empty ones behind. `inserted`,
  // when non-null, receives the number of keys newly inserted (overwrites excluded).
  // Out-of-order input fails with InvalidArgument before any mutation.
  Status BulkLoad(const std::vector<std::pair<std::string, std::string>>& entries,
                  uint64_t* inserted = nullptr);

  // Remove. NotFound if absent.
  Status Delete(Slice key);

  // Number of live entries. O(1): maintained since open (lazily counted on first call
  // for trees opened from an existing root).
  uint64_t Count() const;

  // Visit entries in [first, last) in key order; stop early by returning false from fn.
  // Pass empty last to scan to the end.
  Status Scan(Slice first, Slice last,
              const std::function<bool(Slice key, Slice value)>& fn) const;

  // Visit all entries whose key starts with prefix, in order.
  Status ScanPrefix(Slice prefix, const std::function<bool(Slice key, Slice value)>& fn) const;

  // Delete every entry, freeing all pages and overflow extents. root() becomes 0.
  Status Clear();

  // Structural self-check (test support): verifies page types, key ordering within and
  // across pages, sibling links, and separator routing. Expensive.
  Status CheckInvariants() const;

  // Tree height (0 for empty, 1 for a single leaf). Test/bench support.
  Result<int> Height() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace btree
}  // namespace hfad

#endif  // HFAD_SRC_BTREE_BTREE_H_
