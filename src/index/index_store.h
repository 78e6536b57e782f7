// Extensible index stores (§3.2) and the Table 1 tag taxonomy.
//
// "Given one or more type/value specifications, the collection of index stores must
// return a list of object IDs matching the search terms." Each IndexStore maps values of
// one tag to object ids; the IndexCollection dispatches a tag/value vector across stores
// and intersects the results (§3.1.1 conjunction semantics).
//
// Standard stores (Table 1):
//   POSIX     pathname        -> KeyValueIndexStore    (the POSIX layer names through this)
//   FULLTEXT  search term     -> FullTextIndexStore    (inverted index + BM25)
//   USER      logname         -> KeyValueIndexStore
//   UDEF      annotation      -> KeyValueIndexStore    (manual user tags)
//   APP       application     -> KeyValueIndexStore
//   ID        object id       -> IdIndexStore          (fastpath, no storage)
//
// The paper's open question #1 — "should hFAD support arbitrary types of indexing
// through, for example, a plug-in model?" — is answered yes: IndexCollection::Register
// accepts any IndexStore implementation for a new tag (see ImageIndexStore in the tests
// for a worked example).
#ifndef HFAD_SRC_INDEX_INDEX_STORE_H_
#define HFAD_SRC_INDEX_INDEX_STORE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/btree/btree.h"
#include "src/common/sharded_lock.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/fulltext/fulltext.h"
#include "src/index/posting_iterator.h"
#include "src/osd/osd.h"

namespace hfad {
namespace index {

using osd::ObjectId;

// Table 1 tag names.
inline constexpr std::string_view kTagPosix = "POSIX";
inline constexpr std::string_view kTagFulltext = "FULLTEXT";
inline constexpr std::string_view kTagUser = "USER";
inline constexpr std::string_view kTagUdef = "UDEF";
inline constexpr std::string_view kTagApp = "APP";
inline constexpr std::string_view kTagId = "ID";

// One tag/value naming term (§3.1.1).
struct TagValue {
  std::string tag;
  std::string value;
};

// Interface every index store implements. Values are tag-specific byte strings; the tag
// "tells hFAD how to interpret the value and in which of multiple indexes to search".
//
// Thread safety: implementations must be internally synchronized with reader/writer
// separation — Add/Remove exclusive, the read methods shared — so that concurrent
// queries on one store proceed in parallel and never block each other (see
// docs/CONCURRENCY.md). Cross-store operations need no shared lock at all: independent
// indexes have no common ancestor to synchronize through (§2.3).
class IndexStore {
 public:
  virtual ~IndexStore() = default;

  // Tag this store serves ("POSIX", "FULLTEXT", ...).
  virtual std::string_view tag() const = 0;

  // Associate value -> oid. Idempotent per (value, oid) pair.
  virtual Status Add(Slice value, ObjectId oid) = 0;

  // Remove one association. NotFound when absent.
  virtual Status Remove(Slice value, ObjectId oid) = 0;

  // Apply a batch of deferred mutations — the background indexer's write path. Adds
  // apply before removes; removing an absent association is NOT an error here (a
  // deferred remove legitimately chases an add that was collapsed away). The default
  // loops Add/Remove, correct for any plug-in store; KeyValueIndexStore and
  // FullTextIndexStore override it with one lock acquisition and a sorted
  // Btree::BulkLoad.
  virtual Status ApplyBatch(const std::vector<std::pair<std::string, ObjectId>>& adds,
                            const std::vector<std::pair<std::string, ObjectId>>& removes);

  // All objects associated with the value, ascending oid order.
  virtual Result<std::vector<ObjectId>> Lookup(Slice value) const = 0;

  // Point membership test: is (value, oid) associated? The query engine probes this
  // instead of materializing large postings when the running intersection is small.
  virtual Result<bool> Contains(Slice value, ObjectId oid) const = 0;

  // Estimated result size of Lookup(value); used by the query optimizer to order
  // conjuncts. Exact sizes are not required — relative order is what matters.
  virtual Result<uint64_t> EstimateCardinality(Slice value) const = 0;

  // Seekable pull iterator over Lookup(value)'s postings (ascending oid) — the primitive
  // the unified planner/iterator path executes on. The default materializes through
  // Lookup (correct for any plug-in store); the standard stores stream in batches so
  // paginated consumers never pay for the full posting list. The iterator must not
  // outlive the store and observes concurrent mutations with per-batch consistency.
  virtual Result<std::unique_ptr<PostingIterator>> OpenPostings(
      Slice value, PlanStats* stats = nullptr) const;

  // Enumerate (value, oid) pairs whose value starts with prefix, in value order. Stores
  // that cannot enumerate (e.g. the ID fastpath) return NotSupported.
  virtual Status ScanValues(
      Slice prefix, const std::function<bool(Slice value, ObjectId oid)>& fn) const = 0;

  // All objects carrying ANY value that starts with `prefix` (ascending oid,
  // deduplicated) behind the same pull interface — the executor for `tag:prefix*` terms
  // and POSIX directory enumeration. The default materializes through ScanValues
  // (correct for any plug-in store); KeyValueIndexStore overrides it with a streaming
  // merge so a page over a huge prefix never materializes the full posting set.
  // Prefix enumeration is defined only over values WITHOUT embedded NUL bytes: the
  // standard key encoding uses NUL as the value/oid delimiter (see index_store.cc),
  // so values containing NUL support exact-match naming only.
  virtual Result<std::unique_ptr<PostingIterator>> OpenPrefixPostings(
      Slice prefix, PlanStats* stats = nullptr) const;
};

// Btree-backed exact-match store: one entry per (value, oid) pair, so a value can name
// many objects and an object can carry many values — naming decoupled from access (§2.2).
class KeyValueIndexStore : public IndexStore {
 public:
  // Estimates are exact up to this cap; beyond it "large" is all the planner needs. A
  // cached entry at the cap is clamped, so Remove invalidates rather than decrements it
  // (decrementing a clamped value would drift it arbitrarily below the real count).
  static constexpr uint64_t kCardEstimateCap = 1024;

  // Opens (creating on first use) the backing btree registered on `volume` under the
  // named root "index/<tag>". The store keeps the registration current as its root moves.
  static Result<std::unique_ptr<KeyValueIndexStore>> Mount(osd::Osd* volume,
                                                           std::string tag);

  std::string_view tag() const override { return tag_; }
  Status Add(Slice value, ObjectId oid) override;
  Status Remove(Slice value, ObjectId oid) override;
  // One mu_ acquisition for the whole batch: adds become one sorted BulkLoad into the
  // backing btree, removes a Delete loop, followed by a single root sync.
  Status ApplyBatch(const std::vector<std::pair<std::string, ObjectId>>& adds,
                    const std::vector<std::pair<std::string, ObjectId>>& removes) override;
  Result<std::vector<ObjectId>> Lookup(Slice value) const override;
  Result<bool> Contains(Slice value, ObjectId oid) const override;
  Result<uint64_t> EstimateCardinality(Slice value) const override;
  Status ScanValues(
      Slice prefix, const std::function<bool(Slice value, ObjectId oid)>& fn) const override;
  // Postings-cache hits return a zero-copy materialized iterator; misses stream the
  // btree range in batches (and fill the cache when one batch covers the whole list).
  Result<std::unique_ptr<PostingIterator>> OpenPostings(Slice value,
                                                        PlanStats* stats) const override;
  // Streaming `value*` execution: a lazy skip-seek pass discovers the distinct values
  // under the prefix (postings are jumped over, not read), then a min-heap merges the
  // per-value batched posting streams in ascending-oid order. Each pull costs
  // O(log V + an occasional 1024-entry batch refill); nothing materializes the full set.
  Result<std::unique_ptr<PostingIterator>> OpenPrefixPostings(
      Slice prefix, PlanStats* stats) const override;

  // Number of (value, oid) associations (test support).
  uint64_t entry_count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return tree_->Count();
  }

 private:
  class ScanIterator;         // Batched streaming iterator over one value's postings.
  class PrefixMergeIterator;  // Heap merge of per-value streams for OpenPrefixPostings.

  KeyValueIndexStore(osd::Osd* volume, std::string tag, uint64_t root);

  // Persist the btree root under the named root when it has moved. Callers hold mu_
  // exclusively.
  Status SyncRoot();

  osd::Osd* const volume_;
  const std::string tag_;
  const std::string root_name_;
  std::unique_ptr<btree::BTree> tree_;
  uint64_t last_root_ = 0;

  // Reader/writer separation: queries hold mu_ shared, mutations exclusive. Also what
  // makes last_root_ bookkeeping safe under concurrent Add/Remove.
  mutable std::shared_mutex mu_;

  // Cardinality cache: value -> posting count, maintained on Add/Remove for values that
  // have been estimated at least once. Makes EstimateCardinality O(1) warm, which is
  // what lets conjunction planning (IndexCollection::Lookup, the query optimizer) order
  // terms cheaply on every lookup. Striped so estimates on different values never
  // contend. Bounded per stripe: at capacity each insert displaces one arbitrary
  // resident entry (StripedMap::PutWithEvict) — no global flushes.
  static constexpr size_t kCardCacheMaxEntries = 1 << 16;
  mutable StripedMap<std::string, uint64_t> card_cache_;

  // Postings cache: value -> materialized ascending-oid postings list, filled on
  // Lookup misses and invalidated (per value) on Add/Remove. Repeated naming lookups
  // on warm values skip the btree descent + leaf walk entirely — the §3.1.1 conjunction
  // then runs off cached arrays. Shared_ptr values keep hits zero-copy under the shard
  // lock. Bounded like the cardinality cache: per-stripe single-entry eviction at
  // capacity, no global flushes.
  static constexpr size_t kPostingsCacheMaxEntries = 1 << 14;
  using PostingsRef = std::shared_ptr<const std::vector<ObjectId>>;
  mutable StripedMap<std::string, PostingsRef> postings_cache_;
};

// Full-text store: Add() treats the value as document *content* to index; Lookup()
// treats the value as a single search term. Ranked multi-term search reads through
// engine() (the IndexStore interface is set semantics only); every write goes through
// the store, so its root stays registered.
class FullTextIndexStore : public IndexStore {
 public:
  static Result<std::unique_ptr<FullTextIndexStore>> Mount(osd::Osd* volume);

  std::string_view tag() const override { return kTagFulltext; }
  Status Add(Slice content, ObjectId oid) override;
  Status Remove(Slice content, ObjectId oid) override;  // Content is ignored: oid keys it.
  // The lazy indexer's write path. Adds are (content, oid) pairs, tokenized and sorted
  // outside mu_; under one exclusive mu_ hold the batch is applied with a single
  // BulkLoad (FullTextIndex::Apply), removes follow, and the root is synced once.
  Status ApplyBatch(const std::vector<std::pair<std::string, ObjectId>>& adds,
                    const std::vector<std::pair<std::string, ObjectId>>& removes) override;
  Result<std::vector<ObjectId>> Lookup(Slice term) const override;
  Result<bool> Contains(Slice term, ObjectId oid) const override;
  Result<uint64_t> EstimateCardinality(Slice term) const override;
  Status ScanValues(Slice, const std::function<bool(Slice, ObjectId)>&) const override {
    return Status::NotSupported("full-text store cannot enumerate values");
  }
  // Streams the term's posting range from the inverted index in batches.
  Result<std::unique_ptr<PostingIterator>> OpenPostings(Slice term,
                                                        PlanStats* stats) const override;

  // Read-only: writes that bypassed the store would skip mu_ and SyncRoot.
  const fulltext::FullTextIndex* engine() const { return engine_.get(); }

 private:
  class ScanIterator;

  FullTextIndexStore(osd::Osd* volume, uint64_t root);

  // Callers hold mu_ exclusively.
  Status SyncRoot();

  osd::Osd* const volume_;
  std::unique_ptr<btree::BTree> tree_;
  std::unique_ptr<fulltext::FullTextIndex> engine_;
  uint64_t last_root_ = 0;
  // Reader/writer separation for the store API. Every write, the LazyIndexer's batches
  // included, holds it exclusively; the engine's own mutex nests inside.
  mutable std::shared_mutex mu_;
};

// The ID fastpath (Table 1): "a special tag, ID, indicates that the value is actually a
// unique object ID, supporting object reference caching inside applications." Lookup
// parses the value as a decimal oid and verifies existence — no index storage at all.
class IdIndexStore : public IndexStore {
 public:
  explicit IdIndexStore(osd::Osd* volume) : volume_(volume) {}

  std::string_view tag() const override { return kTagId; }
  Status Add(Slice, ObjectId) override {
    return Status::Ok();  // IDs are intrinsic; nothing to record.
  }
  Status Remove(Slice, ObjectId) override { return Status::Ok(); }
  Result<std::vector<ObjectId>> Lookup(Slice value) const override;
  Result<bool> Contains(Slice value, ObjectId oid) const override {
    HFAD_ASSIGN_OR_RETURN(std::vector<ObjectId> ids, Lookup(value));
    return !ids.empty() && ids[0] == oid;
  }
  Result<uint64_t> EstimateCardinality(Slice) const override { return uint64_t{1}; }
  Status ScanValues(Slice, const std::function<bool(Slice, ObjectId)>&) const override {
    return Status::NotSupported("ID fastpath has no enumerable storage");
  }

 private:
  osd::Osd* const volume_;
};

// The collection of index stores: tag dispatch, plug-in registration, and conjunctive
// naming lookups.
//
// The store map itself is immutable after mount-time registration (Register is not
// thread-safe against concurrent lookups); all run-time synchronization lives inside
// the individual stores.
class IndexCollection {
 public:
  // Mounts the six Table 1 standard stores on `volume`.
  static Result<std::unique_ptr<IndexCollection>> Mount(osd::Osd* volume);

  // Plug-in model (open question #1): add a store for a new tag. AlreadyExists if the
  // tag is taken. Mount-time only: not synchronized against concurrent lookups.
  Status Register(std::unique_ptr<IndexStore> store);

  // Store for a tag, or nullptr.
  IndexStore* store(std::string_view tag);
  const IndexStore* store(std::string_view tag) const;

  // Registered tags, sorted.
  std::vector<std::string> tags() const;

  // Naming lookup (§3.1.1): the conjunction of per-term lookups, ascending oid order.
  // Multiple results are expected; "no query need uniquely define a data item".
  // Materializes OpenLookupIterator — the two share one plan and one executor.
  Result<std::vector<ObjectId>> Lookup(const std::vector<TagValue>& terms) const;

  // The same conjunction as a pull iterator (the planner/iterator path every naming
  // entry point executes on): conjuncts ordered cheapest-first (EstimateCardinality,
  // which the stores answer from their cardinality caches), the smallest posting list
  // driving a leapfrog intersection, and conjuncts that dwarf the driver degraded to
  // per-candidate membership probes instead of being opened at all. The iterator starts
  // unpositioned (SeekTo first) and must not outlive this collection.
  Result<std::unique_ptr<PostingIterator>> OpenLookupIterator(
      const std::vector<TagValue>& terms, PlanStats* stats = nullptr) const;

 private:
  IndexCollection() = default;

  std::map<std::string, std::unique_ptr<IndexStore>, std::less<>> stores_;
};

// Set intersection helper shared with the query engine (inputs must be sorted).
std::vector<ObjectId> IntersectSorted(const std::vector<ObjectId>& a,
                                      const std::vector<ObjectId>& b);

}  // namespace index
}  // namespace hfad

#endif  // HFAD_SRC_INDEX_INDEX_STORE_H_
