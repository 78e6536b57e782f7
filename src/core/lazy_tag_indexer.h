// Background application of index mutations (§3.4: "we use background threads to
// perform lazy full-text indexing", generalized to the namespace itself: indexing is a
// cache over naming state and need not be synchronous with mutation).
//
// Every FileSystem owns one of these. Content indexing always runs through it: an op
// on the FULLTEXT store whose value is the document snapshot (add) or empty (strip).
// Under lazy tag indexing, tag mutations do too. The FileSystem journals each intent,
// updates the reverse map inline (naming state stays authoritative), enqueues the
// forward store update here, and returns. kWorkers threads drain per-worker queues
// into the stores in sorted bulk batches (IndexStore::ApplyBatch -> BTree::BulkLoad),
// so two full-text batches tokenize and apply concurrently. Visibility is explicit:
// strict readers wait on per-tag applied-sequence horizons, relaxed readers take the
// postings as they are.
//
// Ops are routed to workers by oid: every op for a given object lands in the same
// worker's FIFO queue, so per-object application order equals enqueue order (a strip
// is never overtaken by an older snapshot). A tag's ops may spread over both workers,
// so horizons are kept per (worker, tag): a strict reader snapshots each worker's
// enqueued count for its tags and waits until that worker's applied count reaches it.
// Each queue is FIFO and batches are queue prefixes, so a counter pair per (worker,
// tag) is an exact watermark.
//
// Crash safety is owned by the layers around this class: intents are journaled before
// they are enqueued (Osd::AppendForeign with the enqueue callback under the same volume
// lock hold), checkpoints persist SnapshotUnapplied() into the volume
// ("osd/pending-foreign"), and recovery Seed()s the rebuilt queue.
//
// Lock order (docs/CONCURRENCY.md): mu_ here is a leaf lock on the enqueue side —
// callers hold a tag shard lock (never the volume lock) when they block in
// ReserveSlots. The worker acquires store locks / the volume lock only while NOT
// holding mu_.
#ifndef HFAD_SRC_CORE_LAZY_TAG_INDEXER_H_
#define HFAD_SRC_CORE_LAZY_TAG_INDEXER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/index/index_store.h"

namespace hfad {
namespace core {

class LazyTagIndexer {
 public:
  // One deferred store mutation. For FULLTEXT, `name.value` is the document text to
  // index (add) or empty (remove the document).
  struct Op {
    bool add = true;  // true = add association, false = remove.
    index::ObjectId oid = 0;
    index::TagValue name;
  };

  // Application threads. Two keep full-text tokenization off one core.
  static constexpr size_t kWorkers = 2;

  // `indexes` must outlive this object. `queue_capacity` bounds acknowledged-but-
  // unapplied intents across all workers (mutators block in ReserveSlots beyond it);
  // `batch_limit` caps ops taken per worker application round.
  LazyTagIndexer(index::IndexCollection* indexes, size_t queue_capacity,
                 size_t batch_limit = 256);
  ~LazyTagIndexer();

  LazyTagIndexer(const LazyTagIndexer&) = delete;
  LazyTagIndexer& operator=(const LazyTagIndexer&) = delete;

  // Block until n queue slots are free, then reserve them. MUST be called before the
  // caller takes the volume lock: blocking on the worker while holding the volume lock
  // shared deadlocks against a waiting checkpoint (writer-priority) that the worker's
  // own store writes queue behind. Batches larger than the capacity are admitted once
  // the queue is fully empty.
  void ReserveSlots(size_t n);

  // Give back reserved slots that will not be enqueued (journal append failed).
  void ReleaseSlots(size_t n);

  // Move ops into previously reserved slots. Never blocks — safe under the volume
  // lock, which is what makes journal-append + enqueue atomic against checkpoints.
  void EnqueueReserved(std::vector<Op> ops);

  // Recovery: seed the queue with intents rebuilt from the journal/pending set. May
  // exceed the capacity transiently; takes no reservation.
  void Seed(std::vector<Op> ops);

  // Wait until every op enqueued before this call for any of `tags` has been applied
  // (the strict-visibility horizon). Returns the sticky first application error.
  Status WaitForTags(const std::vector<std::string>& tags);

  // Global horizon: wait for everything currently enqueued. Returns immediately while
  // paused (test support) — a paused queue would never drain.
  Status Drain();

  // Queued + in-flight ops, in queue order per worker — the checkpoint provider's and
  // fsck's view of what the stores may still be missing.
  std::vector<Op> SnapshotUnapplied() const;

  size_t PendingCount() const;

  // Test support: freeze the workers between batches so crash tests can pin the queue
  // in a partially drained state.
  void SetPausedForTesting(bool paused);

 private:
  // One application thread's FIFO queue, batch in flight and horizons. All of it is
  // guarded by the single mu_.
  struct Worker {
    std::deque<Op> queue;     // Enqueued, not picked up.
    std::vector<Op> in_flight;  // Application in progress.
    // How many ops for each tag were ever enqueued to / applied by this worker.
    std::unordered_map<std::string, uint64_t> enqueued_by_tag;
    std::unordered_map<std::string, uint64_t> applied_by_tag;
    std::thread thread;
  };

  void WorkerMain(Worker* worker);

  // Append ops to their workers' queues. Caller holds mu_.
  void PushLocked(std::vector<Op> ops);

  // Apply one popped batch to the stores. Called with mu_ NOT held.
  Status ApplyOps(const std::vector<Op>& ops);

  // Ops enqueued or in application, summed across workers. Caller holds mu_.
  size_t PendingLocked() const;

  index::IndexCollection* const indexes_;
  const size_t capacity_;
  const size_t batch_limit_;

  mutable std::mutex mu_;
  std::condition_variable slots_cv_;    // Reservers waiting for queue room.
  std::condition_variable work_cv_;     // Workers waiting for ops / unpause.
  std::condition_variable applied_cv_;  // Strict readers waiting on horizons.

  std::array<Worker, kWorkers> workers_;
  size_t reserved_ = 0;  // Slots reserved but not yet enqueued.
  bool paused_ = false;
  bool shutdown_ = false;
  Status first_error_;
  uint64_t enqueued_total_ = 0;
  uint64_t applied_total_ = 0;
};

}  // namespace core
}  // namespace hfad

#endif  // HFAD_SRC_CORE_LAZY_TAG_INDEXER_H_
