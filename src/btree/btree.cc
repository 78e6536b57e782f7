#include "src/btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/coding.h"
#include "src/common/stats.h"

namespace hfad {
namespace btree {
namespace {

// Page header layout (both leaf and interior pages):
//   [0]      u8  page type (kLeafPage / kInteriorPage)
//   [1]      u8  unused
//   [2..3]   u16 slot count
//   [4..5]   u16 cell area start (cells occupy [cell_start, kPageSize))
//   [6..7]   u16 garbage bytes (dead cell space reclaimable by compaction)
//   [8..15]  u64 leaf: right sibling offset | interior: leftmost child offset
//   [16..23] u64 leaf: left sibling offset  | interior: unused
//   [24..]   u16 slot array; each slot is the in-page offset of a cell
//
// Leaf cell:     varint32 klen | key | u8 kind | kind==0: varint32 vlen, value bytes
//                                              | kind==1: u64 extent offset, u64 value length
// Interior cell: varint32 klen | key | u64 child page offset
constexpr uint8_t kLeafPage = 1;
constexpr uint8_t kInteriorPage = 2;
constexpr size_t kHdrType = 0;
constexpr size_t kHdrNSlots = 2;
constexpr size_t kHdrCellStart = 4;
constexpr size_t kHdrGarbage = 6;
constexpr size_t kHdrLink0 = 8;
constexpr size_t kHdrLink1 = 16;
constexpr size_t kHdrSize = 24;

constexpr uint8_t kValueInline = 0;
constexpr uint8_t kValueOverflow = 1;

uint8_t PageType(const Page& p) { return p.data()[kHdrType]; }
void SetPageType(Page& p, uint8_t t) { p.data()[kHdrType] = t; }

uint16_t NSlots(const Page& p) { return DecodeFixed16(p.data() + kHdrNSlots); }
void SetNSlots(Page& p, uint16_t n) { EncodeFixed16(p.data() + kHdrNSlots, n); }

uint16_t CellStart(const Page& p) { return DecodeFixed16(p.data() + kHdrCellStart); }
void SetCellStart(Page& p, uint16_t v) { EncodeFixed16(p.data() + kHdrCellStart, v); }

uint16_t Garbage(const Page& p) { return DecodeFixed16(p.data() + kHdrGarbage); }
void SetGarbage(Page& p, uint16_t v) { EncodeFixed16(p.data() + kHdrGarbage, v); }

uint64_t Link0(const Page& p) { return DecodeFixed64(p.data() + kHdrLink0); }
void SetLink0(Page& p, uint64_t v) { EncodeFixed64(p.data() + kHdrLink0, v); }

uint64_t Link1(const Page& p) { return DecodeFixed64(p.data() + kHdrLink1); }
void SetLink1(Page& p, uint64_t v) { EncodeFixed64(p.data() + kHdrLink1, v); }

uint16_t SlotAt(const Page& p, int i) { return DecodeFixed16(p.data() + kHdrSize + 2 * i); }
void SetSlotAt(Page& p, int i, uint16_t v) { EncodeFixed16(p.data() + kHdrSize + 2 * i, v); }

void InitPage(Page& p, uint8_t type) {
  memset(p.data(), 0, kPageSize);
  SetPageType(p, type);
  SetCellStart(p, static_cast<uint16_t>(kPageSize));
}

size_t FreeSpace(const Page& p) {
  return CellStart(p) - (kHdrSize + 2 * static_cast<size_t>(NSlots(p)));
}

// A decoded cell. `raw` spans the complete encoded cell within the page buffer.
struct Cell {
  Slice key;
  uint8_t kind = kValueInline;    // Leaf only.
  Slice inline_value;             // Leaf, kind == kValueInline.
  uint64_t overflow_offset = 0;   // Leaf, kind == kValueOverflow.
  uint64_t overflow_length = 0;
  uint64_t child = 0;             // Interior only.
  Slice raw;
};

bool ParseCell(const Page& p, int slot, Cell* out) {
  uint16_t off = SlotAt(p, slot);
  if (off < kHdrSize || off >= kPageSize) {
    return false;
  }
  Slice in(p.cdata() + off, kPageSize - off);
  const char* start = in.data();
  uint32_t klen;
  if (!GetVarint32(&in, &klen) || in.size() < klen) {
    return false;
  }
  out->key = Slice(in.data(), klen);
  in.RemovePrefix(klen);
  if (PageType(p) == kLeafPage) {
    if (in.empty()) {
      return false;
    }
    out->kind = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    if (out->kind == kValueInline) {
      uint32_t vlen;
      if (!GetVarint32(&in, &vlen) || in.size() < vlen) {
        return false;
      }
      out->inline_value = Slice(in.data(), vlen);
      in.RemovePrefix(vlen);
    } else {
      if (!GetFixed64(&in, &out->overflow_offset) || !GetFixed64(&in, &out->overflow_length)) {
        return false;
      }
    }
  } else {
    if (!GetFixed64(&in, &out->child)) {
      return false;
    }
  }
  out->raw = Slice(start, static_cast<size_t>(in.data() - start));
  return true;
}

// Key-only decode for search probes: LowerBound/ChildIndexFor compare keys dozens of
// times per descent and never need the value/child fields, so skip decoding them.
bool ParseCellKey(const Page& p, int slot, Slice* key) {
  uint16_t off = SlotAt(p, slot);
  if (off < kHdrSize || off >= kPageSize) {
    return false;
  }
  Slice in(p.cdata() + off, kPageSize - off);
  uint32_t klen;
  if (!GetVarint32(&in, &klen) || in.size() < klen) {
    return false;
  }
  *key = Slice(in.data(), klen);
  return true;
}

std::string EncodeLeafCell(Slice key, uint8_t kind, Slice inline_value, uint64_t ov_offset,
                           uint64_t ov_length) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  cell.push_back(static_cast<char>(kind));
  if (kind == kValueInline) {
    PutVarint32(&cell, static_cast<uint32_t>(inline_value.size()));
    cell.append(inline_value.data(), inline_value.size());
  } else {
    PutFixed64(&cell, ov_offset);
    PutFixed64(&cell, ov_length);
  }
  return cell;
}

std::string EncodeInteriorCell(Slice key, uint64_t child) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  PutFixed64(&cell, child);
  return cell;
}

// First slot whose key is >= key; NSlots if none. Sets *exact when the key matches.
int LowerBound(const Page& p, Slice key, bool* exact) {
  int lo = 0;
  int hi = NSlots(p);
  *exact = false;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    Slice k;
    if (!ParseCellKey(p, mid, &k)) {
      // Corrupt cell: treat as greater so scans terminate; CheckInvariants reports it.
      hi = mid;
      continue;
    }
    int cmp = k.Compare(key);
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      if (cmp == 0) {
        *exact = true;
      }
      hi = mid;
    }
  }
  return lo;
}

// Child index to descend into for `key`: -1 means the leftmost child, otherwise the child
// of slot i. Children of slot i hold keys >= separator i.
int ChildIndexFor(const Page& p, Slice key) {
  int lo = 0;
  int hi = NSlots(p);
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    Slice k;
    if (!ParseCellKey(p, mid, &k)) {
      hi = mid;
      continue;
    }
    if (k.Compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo - 1;
}

// Insert an encoded cell at slot position pos. Caller guarantees space.
void InsertCellAt(Page& p, int pos, const std::string& cell) {
  uint16_t n = NSlots(p);
  uint16_t start = CellStart(p) - static_cast<uint16_t>(cell.size());
  memcpy(p.data() + start, cell.data(), cell.size());
  // Shift slots [pos, n) up by one.
  for (int i = n; i > pos; i--) {
    SetSlotAt(p, i, SlotAt(p, i - 1));
  }
  SetSlotAt(p, pos, start);
  SetNSlots(p, n + 1);
  SetCellStart(p, start);
  p.MarkDirty();
}

// Remove slot pos, accounting its cell as garbage.
void EraseSlotAt(Page& p, int pos) {
  Cell c;
  bool ok = ParseCell(p, pos, &c);
  uint16_t n = NSlots(p);
  for (int i = pos; i < n - 1; i++) {
    SetSlotAt(p, i, SlotAt(p, i + 1));
  }
  SetNSlots(p, n - 1);
  if (ok) {
    SetGarbage(p, Garbage(p) + static_cast<uint16_t>(c.raw.size()));
  }
  p.MarkDirty();
}

// Rewrite the page with only live cells, reclaiming garbage. Preserves slot order.
void CompactPage(Page& p) {
  uint16_t n = NSlots(p);
  std::vector<std::string> cells;
  cells.reserve(n);
  for (int i = 0; i < n; i++) {
    Cell c;
    if (ParseCell(p, i, &c)) {
      cells.push_back(c.raw.ToString());
    }
  }
  uint8_t type = PageType(p);
  uint64_t l0 = Link0(p);
  uint64_t l1 = Link1(p);
  InitPage(p, type);
  SetLink0(p, l0);
  SetLink1(p, l1);
  uint16_t start = static_cast<uint16_t>(kPageSize);
  for (size_t i = 0; i < cells.size(); i++) {
    start -= static_cast<uint16_t>(cells[i].size());
    memcpy(p.data() + start, cells[i].data(), cells[i].size());
    SetSlotAt(p, static_cast<int>(i), start);
  }
  SetNSlots(p, static_cast<uint16_t>(cells.size()));
  SetCellStart(p, start);
  p.MarkDirty();
}

// Byte-aware split point for an ordered cell list. Returns i such that left = [0, i) and
// right = [i, n) (or right = [i+1, n) when promote_middle, with cell i promoted upward)
// both fit in a fresh page including their slot arrays; prefers the most balanced choice.
// `run_bytes` more are known to follow cell `run_after` (a sorted bulk load's run), and
// count toward whichever side will receive them, so the pages come out balanced once
// the run has landed rather than now. Returns 0 when no legal split exists — impossible
// while cells respect kMaxKeySize / kMaxInlineValue, and treated as corruption by
// callers.
size_t SplitPoint(const std::vector<std::string>& cells, bool promote_middle,
                  size_t run_after = 0, size_t run_bytes = 0) {
  const size_t cap = kPageSize - kHdrSize;
  std::vector<size_t> prefix(cells.size() + 1, 0);
  for (size_t i = 0; i < cells.size(); i++) {
    prefix[i + 1] = prefix[i] + cells[i].size() + 2;  // +2 for the slot entry.
  }
  const size_t total = prefix.back();
  size_t best = 0;
  size_t best_score = SIZE_MAX;
  for (size_t i = 1; i < cells.size(); i++) {
    size_t left = prefix[i];
    size_t right = total - prefix[promote_middle ? i + 1 : i];
    if (left > cap || right > cap) {
      continue;
    }
    if (i > run_after) {
      left += run_bytes;  // The run lands left of a split after its predecessor.
    } else {
      right += run_bytes;
    }
    size_t score = left > right ? left - right : right - left;
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

// Rebuild a page from an ordered list of encoded cells (used on split).
void RebuildPage(Page& p, uint8_t type, const std::vector<std::string>& cells, uint64_t l0,
                 uint64_t l1) {
  InitPage(p, type);
  SetLink0(p, l0);
  SetLink1(p, l1);
  uint16_t start = static_cast<uint16_t>(kPageSize);
  for (size_t i = 0; i < cells.size(); i++) {
    start -= static_cast<uint16_t>(cells[i].size());
    memcpy(p.data() + start, cells[i].data(), cells[i].size());
    SetSlotAt(p, static_cast<int>(i), start);
  }
  SetNSlots(p, static_cast<uint16_t>(cells.size()));
  SetCellStart(p, start);
  p.MarkDirty();
}

}  // namespace

class BTree::Impl {
 public:
  Impl(Pager* pager, BuddyAllocator* allocator, uint64_t root)
      : pager_(pager), alloc_(allocator), root_(root) {}

  uint64_t root() const {
    std::shared_lock lock(mu_);
    return root_;
  }

  Result<std::string> Get(Slice key) const {
    std::shared_lock lock(mu_);
    stats::Add(stats::Counter::kIndexTraversals);
    if (root_ == 0) {
      return Status::NotFound("empty tree");
    }
    uint64_t page_off = root_;
    for (;;) {
      HFAD_ASSIGN_OR_RETURN(PageRef page, RootOrGet(page_off));
      stats::Add(stats::Counter::kBtreeNodeVisits);
      if (PageType(*page) == kLeafPage) {
        bool exact;
        int pos = LowerBound(*page, key, &exact);
        if (!exact) {
          return Status::NotFound("key absent");
        }
        Cell c;
        if (!ParseCell(*page, pos, &c)) {
          return Status::Corruption("unparseable leaf cell");
        }
        return ReadCellValue(c);
      }
      int ci = ChildIndexFor(*page, key);
      if (ci < 0) {
        page_off = Link0(*page);
      } else {
        Cell c;
        if (!ParseCell(*page, ci, &c)) {
          return Status::Corruption("unparseable interior cell");
        }
        page_off = c.child;
      }
      if (page_off == 0) {
        return Status::Corruption("null child pointer");
      }
    }
  }

  Status Put(Slice key, Slice value, bool* inserted = nullptr) {
    // The empty key is legal: the paper stores object metadata under a NULL key (§3.4).
    if (inserted != nullptr) {
      *inserted = false;
    }
    if (key.size() > kMaxKeySize) {
      return Status::InvalidArgument("key size " + std::to_string(key.size()) + " exceeds " +
                                     std::to_string(kMaxKeySize));
    }
    std::unique_lock lock(mu_);
    // Page mutations below span pager round-trips; hold the pager's mutation lock so a
    // concurrent checkpoint (Flush/CollectDirty) never snapshots a half-applied Put.
    auto mutation_hold = pager_->SharedMutationHold();
    stats::Add(stats::Counter::kIndexTraversals);
    if (root_ == 0) {
      HFAD_ASSIGN_OR_RETURN(uint64_t off, NewPage(kLeafPage));
      SetRoot(off);
    }
    // Pin the root page while the exclusive lock is held; shared-lock readers then hit
    // it without a pager round-trip (they never write root_ref_, so no read-side race).
    if (root_ref_ == nullptr || root_ref_->offset() != root_) {
      HFAD_ASSIGN_OR_RETURN(root_ref_, pager_->Get(root_));
    }
    // Encode the cell (spilling large values to an overflow extent first).
    std::string cell;
    uint64_t new_ov_offset = 0;
    if (value.size() > kMaxInlineValue) {
      HFAD_ASSIGN_OR_RETURN(BuddyAllocator::Extent ext, alloc_->Allocate(value.size()));
      HFAD_RETURN_IF_ERROR(pager_->WriteRaw(ext.offset, value));
      new_ov_offset = ext.offset;
      cell = EncodeLeafCell(key, kValueOverflow, Slice(), ext.offset, value.size());
    } else {
      cell = EncodeLeafCell(key, kValueInline, value, 0, 0);
    }

    // Append fastpath: oid-suffixed index keys and the oid-keyed object table insert in
    // ascending order almost always, landing on the rightmost leaf. When the pinned
    // rightmost leaf is still rightmost (no right sibling), strictly precedes the new
    // key, and has room, insert without a descent. The ref is only ever reset when this
    // tree frees or splits the page, so it cannot alias a reused page of another tree.
    if (rightmost_ref_ != nullptr && new_ov_offset == 0) {
      Page& rp = *rightmost_ref_;
      int n = NSlots(rp);
      Slice last_key;
      if (PageType(rp) == kLeafPage && Link0(rp) == 0 && n > 0 &&
          FreeSpace(rp) >= cell.size() + 2 && ParseCellKey(rp, n - 1, &last_key) &&
          key.Compare(last_key) > 0) {
        InsertCellAt(rp, n, cell);
        if (count_valid_) {
          count_++;
        }
        if (inserted != nullptr) {
          *inserted = true;
        }
        return Status::Ok();
      }
    }

    std::vector<Frame> path;
    HFAD_ASSIGN_OR_RETURN(PageRef leaf, DescendLocked(key, &path));

    bool exact;
    int pos = LowerBound(*leaf, key, &exact);
    if (exact) {
      Cell old;
      if (!ParseCell(*leaf, pos, &old)) {
        return Status::Corruption("unparseable leaf cell on update");
      }
      if (old.kind == kValueOverflow) {
        HFAD_RETURN_IF_ERROR(alloc_->Free(old.overflow_offset));
      }
      EraseSlotAt(*leaf, pos);
    } else {
      if (count_valid_) {
        count_++;
      }
      if (inserted != nullptr) {
        *inserted = true;
      }
    }

    Status s = InsertIntoLeaf(leaf, pos, cell, key, path);
    if (!s.ok() && new_ov_offset != 0) {
      (void)alloc_->Free(new_ov_offset);
    }
    if (s.ok() && Link0(*leaf) == 0 && PageType(*leaf) == kLeafPage) {
      // This leaf is (still) the rightmost: remember it for the append fastpath. A
      // split just now would have left it with a right sibling, failing the check.
      rightmost_ref_ = leaf;
    }
    return s;
  }

  Status BulkLoad(const std::vector<std::pair<std::string, std::string>>& entries,
                  uint64_t* inserted_out) {
    if (inserted_out != nullptr) {
      *inserted_out = 0;
    }
    if (entries.empty()) {
      return Status::Ok();
    }
    // Validate before mutating anything: a rejected batch must leave the tree untouched.
    for (size_t i = 0; i < entries.size(); i++) {
      if (entries[i].first.size() > kMaxKeySize) {
        return Status::InvalidArgument("bulk key size " + std::to_string(entries[i].first.size()) +
                                       " exceeds " + std::to_string(kMaxKeySize));
      }
      if (i > 0 && Slice(entries[i].first).Compare(Slice(entries[i - 1].first)) < 0) {
        return Status::InvalidArgument("bulk entries out of order at index " + std::to_string(i));
      }
    }
    std::unique_lock lock(mu_);
    auto mutation_hold = pager_->SharedMutationHold();
    stats::Add(stats::Counter::kIndexTraversals);
    if (root_ == 0) {
      HFAD_ASSIGN_OR_RETURN(uint64_t off, NewPage(kLeafPage));
      SetRoot(off);
    }
    if (root_ref_ == nullptr || root_ref_->offset() != root_) {
      HFAD_ASSIGN_OR_RETURN(root_ref_, pager_->Get(root_));
    }
    uint64_t inserted = 0;
    // Descent cache: the located leaf stays correct for every following key strictly
    // below the routing upper bound recorded during its descent, as long as no split
    // has rewritten the path since.
    PageRef hint_leaf;
    std::vector<Frame> hint_path;
    std::string hint_upper;
    bool hint_bounded = false;
    bool hint_valid = false;
    for (size_t i = 0; i < entries.size(); i++) {
      Slice key(entries[i].first);
      Slice value(entries[i].second);
      std::string cell;
      uint64_t new_ov_offset = 0;
      if (value.size() > kMaxInlineValue) {
        HFAD_ASSIGN_OR_RETURN(BuddyAllocator::Extent ext, alloc_->Allocate(value.size()));
        HFAD_RETURN_IF_ERROR(pager_->WriteRaw(ext.offset, value));
        new_ov_offset = ext.offset;
        cell = EncodeLeafCell(key, kValueOverflow, Slice(), ext.offset, value.size());
      } else {
        cell = EncodeLeafCell(key, kValueInline, value, 0, 0);
      }

      // Same rightmost-append fastpath as Put: a batch targeting the tail of the key
      // space (the common posting-store shape) never descends at all.
      if (rightmost_ref_ != nullptr && new_ov_offset == 0) {
        Page& rp = *rightmost_ref_;
        int n = NSlots(rp);
        Slice last_key;
        if (PageType(rp) == kLeafPage && Link0(rp) == 0 && n > 0 &&
            FreeSpace(rp) >= cell.size() + 2 && ParseCellKey(rp, n - 1, &last_key) &&
            key.Compare(last_key) > 0) {
          InsertCellAt(rp, n, cell);
          if (count_valid_) {
            count_++;
          }
          inserted++;
          continue;
        }
      }

      PageRef leaf;
      if (hint_valid && (!hint_bounded || key.Compare(Slice(hint_upper)) < 0)) {
        leaf = hint_leaf;
      } else {
        hint_path.clear();
        HFAD_ASSIGN_OR_RETURN(leaf, DescendLocked(key, &hint_path, &hint_upper, &hint_bounded));
        hint_leaf = leaf;
        hint_valid = true;
      }

      bool exact;
      int pos = LowerBound(*leaf, key, &exact);
      if (exact) {
        Cell old;
        if (!ParseCell(*leaf, pos, &old)) {
          return Status::Corruption("unparseable leaf cell on bulk update");
        }
        if (old.kind == kValueOverflow) {
          HFAD_RETURN_IF_ERROR(alloc_->Free(old.overflow_offset));
        }
        EraseSlotAt(*leaf, pos);
      } else {
        if (count_valid_) {
          count_++;
        }
        inserted++;
      }

      // About to split a full leaf: measure the run of following keys that will land
      // in this leaf right after this one (up to a page), so the split leaves room
      // where the run goes instead of a trail of half-empty pages behind it.
      size_t run_bytes = 0;
      if (FreeSpace(*leaf) < cell.size() + 2) {
        Slice succ(hint_upper);
        bool bounded = hint_bounded;
        if (pos < NSlots(*leaf)) {
          bounded = ParseCellKey(*leaf, pos, &succ);
        }
        for (size_t j = i + 1; j < entries.size() && run_bytes < kPageSize; j++) {
          if (bounded && Slice(entries[j].first).Compare(succ) >= 0) {
            break;
          }
          run_bytes += entries[j].first.size() + entries[j].second.size() + 6;
        }
      }
      bool split = false;
      Status s = InsertIntoLeaf(leaf, pos, cell, key, hint_path, &split, run_bytes);
      if (!s.ok()) {
        if (new_ov_offset != 0) {
          (void)alloc_->Free(new_ov_offset);
        }
        return s;
      }
      if (split) {
        // The leaf was rebuilt and the path may now route differently; re-descend for
        // the next key.
        hint_valid = false;
        hint_leaf.reset();
        hint_path.clear();
      }
      if (Link0(*leaf) == 0 && PageType(*leaf) == kLeafPage) {
        rightmost_ref_ = leaf;
      }
    }
    if (inserted_out != nullptr) {
      *inserted_out = inserted;
    }
    return Status::Ok();
  }

  Status Delete(Slice key) {
    std::unique_lock lock(mu_);
    auto mutation_hold = pager_->SharedMutationHold();
    stats::Add(stats::Counter::kIndexTraversals);
    if (root_ == 0) {
      return Status::NotFound("empty tree");
    }
    std::vector<Frame> path;
    HFAD_ASSIGN_OR_RETURN(PageRef leaf, DescendLocked(key, &path));
    uint64_t leaf_off = leaf->offset();
    bool exact;
    int pos = LowerBound(*leaf, key, &exact);
    if (!exact) {
      return Status::NotFound("key absent");
    }
    Cell c;
    if (!ParseCell(*leaf, pos, &c)) {
      return Status::Corruption("unparseable leaf cell on delete");
    }
    if (c.kind == kValueOverflow) {
      HFAD_RETURN_IF_ERROR(alloc_->Free(c.overflow_offset));
    }
    EraseSlotAt(*leaf, pos);
    if (count_valid_ && count_ > 0) {
      count_--;
    }
    if (NSlots(*leaf) == 0) {
      HFAD_RETURN_IF_ERROR(RemoveEmptyLeaf(leaf_off, *leaf, path));
    }
    return Status::Ok();
  }

  bool Contains(Slice key) const { return Get(key).ok(); }

  uint64_t Count() const {
    {
      std::shared_lock lock(mu_);
      if (count_valid_) {
        return count_;
      }
    }
    std::unique_lock lock(mu_);
    if (count_valid_) {
      return count_;
    }
    uint64_t n = 0;
    Status s = ScanLocked(Slice(), Slice(), [&n](Slice, Slice) {
      n++;
      return true;
    });
    if (s.ok()) {
      count_ = n;
      count_valid_ = true;
    }
    return n;
  }

  Status Scan(Slice first, Slice last,
              const std::function<bool(Slice, Slice)>& fn) const {
    std::shared_lock lock(mu_);
    return ScanLocked(first, last, fn);
  }

  Status ScanPrefix(Slice prefix, const std::function<bool(Slice, Slice)>& fn) const {
    std::shared_lock lock(mu_);
    return ScanLocked(prefix, Slice(), [&](Slice k, Slice v) {
      if (!k.StartsWith(prefix)) {
        return false;
      }
      return fn(k, v);
    });
  }

  Status Clear() {
    std::unique_lock lock(mu_);
    auto mutation_hold = pager_->SharedMutationHold();
    if (root_ != 0) {
      HFAD_RETURN_IF_ERROR(FreeSubtree(root_));
      SetRoot(0);
    }
    count_ = 0;
    count_valid_ = true;
    return Status::Ok();
  }

  Status CheckInvariants() const {
    std::shared_lock lock(mu_);
    if (root_ == 0) {
      return Status::Ok();
    }
    return CheckSubtree(root_, Slice(), Slice(), nullptr);
  }

  Result<int> Height() const {
    std::shared_lock lock(mu_);
    if (root_ == 0) {
      return 0;
    }
    int h = 0;
    uint64_t off = root_;
    for (;;) {
      HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
      h++;
      if (PageType(*page) == kLeafPage) {
        return h;
      }
      off = Link0(*page);
      if (off == 0) {
        return Status::Corruption("interior page with null leftmost child");
      }
    }
  }

 private:
  struct Frame {
    uint64_t page_off;
    int child_index;  // -1 = leftmost, otherwise slot index whose child we took.
  };

  Result<uint64_t> NewPage(uint8_t type) {
    HFAD_ASSIGN_OR_RETURN(BuddyAllocator::Extent ext, alloc_->Allocate(kPageSize));
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->GetZeroed(ext.offset));
    InitPage(*page, type);
    return ext.offset;
  }

  Status FreePage(uint64_t off) {
    if (rightmost_ref_ != nullptr && rightmost_ref_->offset() == off) {
      rightmost_ref_.reset();
    }
    pager_->Invalidate(off);
    return alloc_->Free(off);
  }

  Result<std::string> ReadCellValue(const Cell& c) const {
    if (c.kind == kValueInline) {
      return c.inline_value.ToString();
    }
    std::string out;
    HFAD_RETURN_IF_ERROR(
        pager_->ReadRaw(c.overflow_offset, static_cast<size_t>(c.overflow_length), &out));
    return out;
  }

  // Descend from the root to the leaf that owns `key`, recording the path. Returns the
  // leaf's PageRef so callers skip a second pager round-trip for it. When `upper` is
  // non-null it receives the tightest routing upper bound along the path: every key
  // strictly below it routes to the same leaf, so a sorted-batch caller can reuse the
  // leaf without re-descending. *bounded is false when the leaf is on the rightmost
  // spine (no upper bound exists).
  Result<PageRef> DescendLocked(Slice key, std::vector<Frame>* path,
                                std::string* upper = nullptr, bool* bounded = nullptr) const {
    if (bounded != nullptr) {
      *bounded = false;
    }
    uint64_t off = root_;
    for (;;) {
      HFAD_ASSIGN_OR_RETURN(PageRef page, RootOrGet(off));
      stats::Add(stats::Counter::kBtreeNodeVisits);
      if (PageType(*page) == kLeafPage) {
        return page;
      }
      int ci = ChildIndexFor(*page, key);
      if (upper != nullptr && ci + 1 < NSlots(*page)) {
        // Keys >= separator ci+1 route past this child; separators nest, so the
        // deepest one seen is the tightest bound.
        Slice sep;
        if (ParseCellKey(*page, ci + 1, &sep)) {
          upper->assign(sep.data(), sep.size());
          if (bounded != nullptr) {
            *bounded = true;
          }
        }
      }
      path->push_back(Frame{off, ci});
      uint64_t child;
      if (ci < 0) {
        child = Link0(*page);
      } else {
        Cell c;
        if (!ParseCell(*page, ci, &c)) {
          return Status::Corruption("unparseable interior cell in descent");
        }
        child = c.child;
      }
      if (child == 0) {
        return Status::Corruption("null child pointer in descent");
      }
      off = child;
    }
  }

  // Insert `cell` at slot `pos` of `leaf`, splitting up the recorded path as needed.
  // *split, when non-null, reports whether a page split occurred (which invalidates any
  // cached descent path into this leaf).
  // `run_bytes`: bulk-loaded bytes that will follow the new cell into this leaf (see
  // SplitPoint).
  Status InsertIntoLeaf(PageRef leaf, int pos, const std::string& cell, Slice /*key*/,
                        const std::vector<Frame>& path, bool* split = nullptr,
                        size_t run_bytes = 0) {
    if (split != nullptr) {
      *split = false;
    }
    size_t need = cell.size() + 2;
    if (FreeSpace(*leaf) >= need) {
      InsertCellAt(*leaf, pos, cell);
      return Status::Ok();
    }
    if (Garbage(*leaf) > 0) {
      CompactPage(*leaf);
      if (FreeSpace(*leaf) >= need) {
        InsertCellAt(*leaf, pos, cell);
        return Status::Ok();
      }
    }
    if (split != nullptr) {
      *split = true;
    }
    // Split: gather all cells plus the new one, rebuild two pages.
    std::vector<std::string> cells;
    uint16_t n = NSlots(*leaf);
    cells.reserve(n + 1);
    for (int i = 0; i < n; i++) {
      Cell c;
      if (!ParseCell(*leaf, i, &c)) {
        return Status::Corruption("unparseable cell during split");
      }
      cells.push_back(c.raw.ToString());
    }
    cells.insert(cells.begin() + pos, cell);

    size_t mid = SplitPoint(cells, /*promote_middle=*/false, static_cast<size_t>(pos),
                            run_bytes);
    if (mid == 0) {
      return Status::Corruption("no legal leaf split point");
    }
    HFAD_ASSIGN_OR_RETURN(uint64_t right_off, NewPage(kLeafPage));
    HFAD_ASSIGN_OR_RETURN(PageRef right, pager_->Get(right_off));

    uint64_t old_next = Link0(*leaf);
    std::vector<std::string> left_cells(cells.begin(), cells.begin() + mid);
    std::vector<std::string> right_cells(cells.begin() + mid, cells.end());

    // Separator = first key of the right page (copy it out before rebuilding).
    Slice sep_in_cell;
    {
      // Decode the key length directly from the raw cell bytes.
      Slice in(right_cells[0]);
      uint32_t klen;
      if (!GetVarint32(&in, &klen) || in.size() < klen) {
        return Status::Corruption("bad cell during split");
      }
      sep_in_cell = Slice(in.data(), klen);
    }
    std::string sep = sep_in_cell.ToString();

    RebuildPage(*right, kLeafPage, right_cells, old_next, leaf->offset());
    RebuildPage(*leaf, kLeafPage, left_cells, right_off, Link1(*leaf));
    if (old_next != 0) {
      HFAD_ASSIGN_OR_RETURN(PageRef next, pager_->Get(old_next));
      SetLink1(*next, right_off);
      next->MarkDirty();
    }
    return InsertSeparator(path, sep, right_off);
  }

  // Insert (sep -> right_child) into the parent recorded at the back of `path`,
  // splitting interiors upward as needed.
  Status InsertSeparator(std::vector<Frame> path, std::string sep, uint64_t right_child) {
    for (;;) {
      if (path.empty()) {
        // Split reached the root: grow the tree.
        uint64_t old_root = root_;
        HFAD_ASSIGN_OR_RETURN(uint64_t new_root_off, NewPage(kInteriorPage));
        HFAD_ASSIGN_OR_RETURN(PageRef new_root, pager_->Get(new_root_off));
        SetLink0(*new_root, old_root);
        std::string cell = EncodeInteriorCell(sep, right_child);
        InsertCellAt(*new_root, 0, cell);
        SetRoot(new_root_off);
        return Status::Ok();
      }
      Frame frame = path.back();
      path.pop_back();
      HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(frame.page_off));
      std::string cell = EncodeInteriorCell(sep, right_child);
      bool exact;
      int pos = LowerBound(*page, Slice(sep), &exact);
      size_t need = cell.size() + 2;
      if (FreeSpace(*page) >= need) {
        InsertCellAt(*page, pos, cell);
        return Status::Ok();
      }
      if (Garbage(*page) > 0) {
        CompactPage(*page);
        if (FreeSpace(*page) >= need) {
          InsertCellAt(*page, pos, cell);
          return Status::Ok();
        }
      }
      // Split the interior page. Gather (cells + new one), promote the middle key.
      std::vector<std::string> cells;
      uint16_t n = NSlots(*page);
      cells.reserve(n + 1);
      for (int i = 0; i < n; i++) {
        Cell c;
        if (!ParseCell(*page, i, &c)) {
          return Status::Corruption("unparseable interior cell during split");
        }
        cells.push_back(c.raw.ToString());
      }
      cells.insert(cells.begin() + pos, cell);

      size_t mid = SplitPoint(cells, /*promote_middle=*/true);
      if (mid == 0) {
        return Status::Corruption("no legal interior split point");
      }
      // Decode the promoted cell (separator key + child).
      Slice in(cells[mid]);
      uint32_t klen;
      if (!GetVarint32(&in, &klen) || in.size() < klen + 8) {
        return Status::Corruption("bad interior cell during split");
      }
      std::string promoted_key(in.data(), klen);
      in.RemovePrefix(klen);
      uint64_t promoted_child = DecodeFixed64(in.udata());

      HFAD_ASSIGN_OR_RETURN(uint64_t right_off, NewPage(kInteriorPage));
      HFAD_ASSIGN_OR_RETURN(PageRef right, pager_->Get(right_off));
      std::vector<std::string> left_cells(cells.begin(), cells.begin() + mid);
      std::vector<std::string> right_cells(cells.begin() + mid + 1, cells.end());
      uint64_t leftmost = Link0(*page);
      RebuildPage(*right, kInteriorPage, right_cells, promoted_child, 0);
      RebuildPage(*page, kInteriorPage, left_cells, leftmost, 0);

      sep = std::move(promoted_key);
      right_child = right_off;
      // Loop continues upward with the promoted separator.
    }
  }

  // A leaf became empty: unlink from the sibling chain, free it, and remove its reference
  // from the parent (recursively shrinking empty interiors).
  Status RemoveEmptyLeaf(uint64_t leaf_off, Page& leaf, std::vector<Frame> path) {
    if (path.empty()) {
      // The leaf is the root: the tree is now empty.
      HFAD_RETURN_IF_ERROR(FreePage(leaf_off));
      SetRoot(0);
      return Status::Ok();
    }
    uint64_t next = Link0(leaf);
    uint64_t prev = Link1(leaf);
    if (prev != 0) {
      HFAD_ASSIGN_OR_RETURN(PageRef p, pager_->Get(prev));
      SetLink0(*p, next);
      p->MarkDirty();
    }
    if (next != 0) {
      HFAD_ASSIGN_OR_RETURN(PageRef p, pager_->Get(next));
      SetLink1(*p, prev);
      p->MarkDirty();
    }
    HFAD_RETURN_IF_ERROR(FreePage(leaf_off));
    return RemoveChildFromParent(path);
  }

  // Remove the child reference recorded by the last frame of `path` from its interior page.
  Status RemoveChildFromParent(std::vector<Frame> path) {
    for (;;) {
      Frame frame = path.back();
      path.pop_back();
      HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(frame.page_off));
      uint16_t n = NSlots(*page);
      if (frame.child_index < 0) {
        // Leftmost child vanished. Promote the first cell's child to leftmost.
        if (n > 0) {
          Cell c;
          if (!ParseCell(*page, 0, &c)) {
            return Status::Corruption("unparseable interior cell in shrink");
          }
          SetLink0(*page, c.child);
          EraseSlotAt(*page, 0);
          break;
        }
        // No children remain at all: free this interior and recurse.
        HFAD_RETURN_IF_ERROR(FreePage(frame.page_off));
        if (path.empty()) {
          SetRoot(0);
          return Status::Ok();
        }
        continue;
      }
      EraseSlotAt(*page, frame.child_index);
      break;
    }
    // Collapse a root interior that routes to a single child.
    for (;;) {
      if (root_ == 0) {
        return Status::Ok();
      }
      HFAD_ASSIGN_OR_RETURN(PageRef rootp, pager_->Get(root_));
      if (PageType(*rootp) != kInteriorPage || NSlots(*rootp) != 0) {
        return Status::Ok();
      }
      uint64_t only_child = Link0(*rootp);
      HFAD_RETURN_IF_ERROR(FreePage(root_));
      SetRoot(only_child);
    }
  }

  // Templated on the callback so per-entry dispatch inlines: index lookups are leaf
  // scans, and a std::function hop per cell is measurable there.
  template <typename Fn>
  Status ScanLocked(Slice first, Slice last, const Fn& fn) const {
    stats::Add(stats::Counter::kIndexTraversals);
    if (root_ == 0) {
      return Status::Ok();
    }
    std::vector<Frame> path;
    HFAD_ASSIGN_OR_RETURN(PageRef page, DescendLocked(first, &path));
    bool exact;
    int pos = first.empty() ? 0 : LowerBound(*page, first, &exact);
    // The leftmost matching key may live in a right sibling when `first` is greater than
    // every key in this leaf.
    for (;;) {
      uint16_t n = NSlots(*page);
      for (; pos < n; pos++) {
        Cell c;
        if (!ParseCell(*page, pos, &c)) {
          return Status::Corruption("unparseable cell in scan");
        }
        if (!last.empty() && c.key.Compare(last) >= 0) {
          return Status::Ok();
        }
        if (c.kind == kValueInline) {
          // Inline values go to the callback zero-copy (valid for the callback only).
          if (!fn(c.key, c.inline_value)) {
            return Status::Ok();
          }
          continue;
        }
        HFAD_ASSIGN_OR_RETURN(std::string value, ReadCellValue(c));
        if (!fn(c.key, Slice(value))) {
          return Status::Ok();
        }
      }
      uint64_t next = Link0(*page);
      if (next == 0) {
        return Status::Ok();
      }
      HFAD_ASSIGN_OR_RETURN(page, pager_->Get(next));
      stats::Add(stats::Counter::kBtreeNodeVisits);
      pos = 0;
    }
  }

  Status FreeSubtree(uint64_t off) {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
    if (PageType(*page) == kInteriorPage) {
      HFAD_RETURN_IF_ERROR(FreeSubtree(Link0(*page)));
      uint16_t n = NSlots(*page);
      for (int i = 0; i < n; i++) {
        Cell c;
        if (!ParseCell(*page, i, &c)) {
          return Status::Corruption("unparseable cell in FreeSubtree");
        }
        HFAD_RETURN_IF_ERROR(FreeSubtree(c.child));
      }
    } else {
      uint16_t n = NSlots(*page);
      for (int i = 0; i < n; i++) {
        Cell c;
        if (ParseCell(*page, i, &c) && c.kind == kValueOverflow) {
          HFAD_RETURN_IF_ERROR(alloc_->Free(c.overflow_offset));
        }
      }
    }
    return FreePage(off);
  }

  // Verify ordering/typing of the subtree at `off`; all keys must be in [lo, hi)
  // (empty bounds mean unbounded). Returns the leaf level depth via *depth when non-null.
  Status CheckSubtree(uint64_t off, Slice lo, Slice hi, int* depth) const {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
    uint16_t n = NSlots(*page);
    std::string prev;
    bool have_prev = false;
    for (int i = 0; i < n; i++) {
      Cell c;
      if (!ParseCell(*page, i, &c)) {
        return Status::Corruption("unparseable cell at page " + std::to_string(off));
      }
      if (have_prev && c.key.Compare(Slice(prev)) <= 0) {
        return Status::Corruption("keys out of order at page " + std::to_string(off));
      }
      if (!lo.empty() && c.key.Compare(lo) < 0) {
        return Status::Corruption("key below lower bound at page " + std::to_string(off));
      }
      if (!hi.empty() && c.key.Compare(hi) >= 0) {
        return Status::Corruption("key above upper bound at page " + std::to_string(off));
      }
      prev = c.key.ToString();
      have_prev = true;
    }
    if (PageType(*page) == kInteriorPage) {
      // Child i covers [sep_i, sep_{i+1}); leftmost covers [lo, sep_0).
      std::string prev_sep = lo.ToString();
      uint64_t prev_child = Link0(*page);
      for (int i = 0; i <= n; i++) {
        std::string next_sep;
        if (i < n) {
          Cell c;
          if (!ParseCell(*page, i, &c)) {
            return Status::Corruption("unparseable interior cell");
          }
          next_sep = c.key.ToString();
        } else {
          next_sep = hi.ToString();
        }
        HFAD_RETURN_IF_ERROR(
            CheckSubtree(prev_child, Slice(prev_sep), Slice(next_sep), nullptr));
        if (i < n) {
          Cell c;
          ParseCell(*page, i, &c);
          prev_sep = c.key.ToString();
          prev_child = c.child;
        }
      }
    }
    if (depth != nullptr) {
      *depth = 0;
    }
    return Status::Ok();
  }

  // Point the root cache at a (possibly) new root offset. Every root_ transition goes
  // through here so root_ref_ can never pin a freed-and-reused page across a change.
  void SetRoot(uint64_t off) {
    root_ = off;
    root_ref_.reset();
    // Conservative: any structural root change may also have moved/freed the rightmost
    // leaf (Clear, shrink-to-empty). The next descent-path Put re-caches it.
    rightmost_ref_.reset();
  }

  // Root page fastpath for descents. root_ref_ is written only under the exclusive
  // lock (Put/Delete/SetRoot), so shared-lock readers may copy it concurrently; a null
  // or mismatched ref just falls back to the pager.
  Result<PageRef> RootOrGet(uint64_t off) const {
    if (off == root_ && root_ref_ != nullptr && root_ref_->offset() == off) {
      return root_ref_;
    }
    return pager_->Get(off);
  }

  Pager* const pager_;
  BuddyAllocator* const alloc_;
  uint64_t root_;
  // Pinned ref to the current root page (see RootOrGet).
  PageRef root_ref_;
  // Pinned ref to the last known rightmost leaf (append fastpath in Put). Reset
  // whenever this tree frees the page or the root changes; revalidated on every use.
  PageRef rightmost_ref_;
  mutable std::shared_mutex mu_;
  mutable uint64_t count_ = 0;
  mutable bool count_valid_ = false;
};

BTree::BTree(Pager* pager, BuddyAllocator* allocator, uint64_t root_offset)
    : impl_(std::make_unique<Impl>(pager, allocator, root_offset)) {
  if (root_offset == 0) {
    // A brand-new tree is known-empty; no lazy count scan needed.
  }
}

BTree::~BTree() = default;

uint64_t BTree::root() const { return impl_->root(); }
Result<std::string> BTree::Get(Slice key) const { return impl_->Get(key); }
bool BTree::Contains(Slice key) const { return impl_->Contains(key); }
Status BTree::Put(Slice key, Slice value, bool* inserted) {
  return impl_->Put(key, value, inserted);
}
Status BTree::BulkLoad(const std::vector<std::pair<std::string, std::string>>& entries,
                       uint64_t* inserted) {
  return impl_->BulkLoad(entries, inserted);
}
Status BTree::Delete(Slice key) { return impl_->Delete(key); }
uint64_t BTree::Count() const { return impl_->Count(); }
Status BTree::Scan(Slice first, Slice last,
                   const std::function<bool(Slice, Slice)>& fn) const {
  return impl_->Scan(first, last, fn);
}
Status BTree::ScanPrefix(Slice prefix,
                         const std::function<bool(Slice, Slice)>& fn) const {
  return impl_->ScanPrefix(prefix, fn);
}
Status BTree::Clear() { return impl_->Clear(); }
Status BTree::CheckInvariants() const { return impl_->CheckInvariants(); }
Result<int> BTree::Height() const { return impl_->Height(); }

}  // namespace btree
}  // namespace hfad
