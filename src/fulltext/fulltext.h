// Persistent inverted index with BM25 ranking — hFAD's replacement for Lucene (§3.4).
//
// The index lives in one btree (provided by the caller, typically allocated from the OSD
// heap and registered as a named root). Key space layout, all byte-ordered so related
// entries cluster:
//
//   "P" term '\0' oid(8B BE) -> varint freq, delta-varint positions   (one posting)
//   "D" term                 -> varint document frequency
//   "T" oid(8B BE)           -> per-doc term list, length-prefixed     (for removal)
//   "L" oid(8B BE)           -> varint document length in tokens
//   "S"                      -> varint doc_count, varint total_tokens (corpus stats)
//
// Queries are conjunctive (§3.1.1: results are "the conjunction of the results of an
// index lookup for each element") and ranked by BM25.
//
// Documents enter the index in sorted batches, the one write path: Prepare tokenizes a
// batch and lays out its postings and per-document entries in key order without any
// lock; Apply then removes earlier versions, fills in one aggregated df per distinct
// term and one corpus-stats entry, and writes the whole batch with a single
// BTree::BulkLoad. IndexDocument is the one-element batch. The LazyIndexer feeds
// batches from background threads, mirroring the paper's "background threads to
// perform lazy full-text indexing" (§3.4).
//
// Thread safety: Search is safe concurrently with indexing; Apply/Remove are internally
// serialized (tokenization happens outside the lock, in Prepare).
#ifndef HFAD_SRC_FULLTEXT_FULLTEXT_H_
#define HFAD_SRC_FULLTEXT_FULLTEXT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/btree/btree.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/fulltext/tokenizer.h"

namespace hfad {
namespace fulltext {

struct SearchHit {
  uint64_t docid = 0;
  double score = 0.0;  // BM25; higher is better.
};

// Documents to index as (text, docid) pairs: the (value, oid) shape of
// index::IndexStore::ApplyBatch's adds, so a store hands its batch through uncopied.
using DocumentBatch = std::vector<std::pair<std::string, uint64_t>>;

// BM25 parameters (standard defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

class FullTextIndex {
 public:
  // The caller owns `tree` and persists its root (e.g. as an OSD named root).
  explicit FullTextIndex(btree::BTree* tree, Bm25Params params = {});

  FullTextIndex(const FullTextIndex&) = delete;
  FullTextIndex& operator=(const FullTextIndex&) = delete;

  // A batch tokenized and laid out as key-sorted index entries, ready for Apply. Only
  // the df and corpus-stats values are left for Apply, which reads them from the tree.
  class PreparedBatch {
    friend class FullTextIndex;
    std::vector<uint64_t> docids_;                               // Distinct, ascending.
    std::vector<std::pair<std::string, std::string>> entries_;  // Ascending keys.
    std::vector<uint64_t> df_adds_;  // Docs adding each term; entries_[i] is its "D" key.
    size_t stats_slot_ = 0;          // Index of the "S" entry in entries_.
    uint64_t tokens_ = 0;            // Summed document lengths.
    uint64_t postings_ = 0;          // Number of "P" entries.
  };

  // Tokenize a batch and sort its entries. Takes no lock and touches no tree. Where a
  // docid appears more than once, the last entry wins, as in a sequence of
  // IndexDocument calls.
  static PreparedBatch Prepare(const DocumentBatch& docs);

  // Index (or re-index) a prepared batch: remove earlier versions of its documents,
  // then write every posting, per-document entry, one df per distinct term and the
  // corpus stats with one BTree::BulkLoad.
  Status Apply(PreparedBatch batch);

  // Prepare + Apply.
  Status IndexDocuments(const DocumentBatch& docs);

  // Index (or re-index) one document: the one-element IndexDocuments.
  Status IndexDocument(uint64_t docid, Slice text);

  // Remove a document from the index. NotFound if it was never indexed.
  Status RemoveDocument(uint64_t docid);

  // Conjunctive search: documents containing *every* term, ranked by summed BM25.
  // Terms are normalized (lowercased) first; stopwords and empty terms are rejected as
  // InvalidArgument since they are never indexed. limit == 0 means unlimited.
  Result<std::vector<SearchHit>> Search(const std::vector<std::string>& terms,
                                        size_t limit = 0) const;

  // Documents containing `term`, unranked (index-store building block).
  Result<std::vector<uint64_t>> Postings(const std::string& term) const;

  // Visit the docids containing `term`, ascending, starting at the first docid >=
  // first_docid; stop early by returning false. The seekable-iterator building block:
  // one bounded btree range scan, no posting materialization.
  Status ScanPostingDocs(const std::string& term, uint64_t first_docid,
                         const std::function<bool(uint64_t docid)>& fn) const;

  // BM25-score an externally produced candidate set (the planner's conjunction of the
  // terms) and return hits sorted by descending score (ties by ascending docid),
  // truncated to `limit` when non-zero. Terms must be normalized and non-empty;
  // candidates not containing a term contribute nothing for it.
  Result<std::vector<SearchHit>> ScoreDocuments(const std::vector<std::string>& terms,
                                                const std::vector<uint64_t>& docids,
                                                size_t limit = 0) const;

  // Point probe: does `docid` contain `term`? One btree lookup, no posting scan.
  Result<bool> ContainsPosting(const std::string& term, uint64_t docid) const;

  // Exact phrase search using stored positions: documents where the terms appear
  // consecutively. Stopwords inside the phrase are skipped but still consume a position.
  Result<std::vector<SearchHit>> SearchPhrase(const std::vector<std::string>& phrase,
                                              size_t limit = 0) const;

  // Number of indexed documents.
  Result<uint64_t> doc_count() const;

  // Visit every indexed document id (fsck support). Stop early by returning false.
  Status ScanDocuments(const std::function<bool(uint64_t docid)>& fn) const;

  // Document frequency of a term (0 when absent).
  Result<uint64_t> DocumentFrequency(const std::string& term) const;

 private:
  struct Posting {
    uint64_t docid;
    uint32_t freq;
    std::vector<uint32_t> positions;
  };

  Status RemoveLocked(uint64_t docid);
  Result<std::vector<Posting>> PostingsLocked(const std::string& term) const;
  Result<std::pair<uint64_t, uint64_t>> CorpusStats() const;  // (docs, total tokens)

  btree::BTree* const tree_;
  const Bm25Params params_;
  mutable std::mutex write_mu_;  // Serializes multi-entry index mutations.
};

// Background lazy indexer (§3.4): worker threads drain a queue of (docid, text) pairs in
// batches of up to kBatchLimit and hand each batch to `apply` — in a FileSystem, the
// full-text store's ApplyBatch, which indexes it with one sorted bulk load and persists
// the store's root. Documents are searchable only after their batch has been applied.
// Versions of one docid apply in submission order: a worker never takes a document
// whose docid is in another worker's batch.
class LazyIndexer {
 public:
  using ApplyFn = std::function<Status(const DocumentBatch& batch)>;

  // Documents taken per wakeup (the same cap as the lazy tag indexer's batches).
  static constexpr size_t kBatchLimit = 256;

  LazyIndexer(ApplyFn apply, int num_threads);
  ~LazyIndexer();  // Drains the queue, then joins the workers.

  LazyIndexer(const LazyIndexer&) = delete;
  LazyIndexer& operator=(const LazyIndexer&) = delete;

  // Enqueue a document for indexing. Returns immediately.
  void Submit(uint64_t docid, std::string text);

  // Block until every submitted document has been indexed.
  void Drain();

  // Drop every queued version of docid and wait until no worker's batch holds one, so
  // a removal that follows is not overtaken by an earlier snapshot.
  void Cancel(uint64_t docid);

  // Documents waiting or in flight.
  size_t backlog() const;

  // First error any worker hit (Ok if none). Sticky.
  Status first_error() const;

 private:
  void WorkerLoop();
  // The queue's front may be taken: its docid is in no worker's batch. Holds mu_.
  bool FrontIsFree() const;

  const ApplyFn apply_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       // Signals work available, docids freed or shutdown.
  std::condition_variable done_cv_;  // Signals a batch finished or the queue shrank.
  std::deque<std::pair<std::string, uint64_t>> queue_;  // (text, docid)
  std::unordered_set<uint64_t> busy_docids_;            // Docids in workers' batches.
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  Status first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace fulltext
}  // namespace hfad

#endif  // HFAD_SRC_FULLTEXT_FULLTEXT_H_
