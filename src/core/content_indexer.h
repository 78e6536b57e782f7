// Background full-text indexing (§3.4: "we use background threads to perform lazy
// full-text indexing").
//
// Every FileSystem owns one of these. IndexContent and Remove journal a content intent,
// set or clear the object's FULLTEXT marker in the reverse map inline (naming state
// stays authoritative), enqueue the document snapshot here, and return. kWorkers
// threads drain per-worker queues into the full-text store in sorted bulk batches
// (IndexStore::ApplyBatch -> BTree::BulkLoad), so two batches tokenize and apply
// concurrently. Visibility is explicit: strict full-text readers wait for every
// content intent enqueued before them (WaitForContent), relaxed readers take the
// postings as they are. Tags never come through here; they apply inline.
//
// Ops are routed to workers by oid: every op for a given object lands in the same
// worker's FIFO queue, so per-object application order equals enqueue order (a strip
// is never overtaken by an older snapshot). Each worker keeps one enqueued/applied
// counter pair; a queue is FIFO and batches are queue prefixes, so a worker's applied
// count reaching a snapshot of its enqueued count is an exact watermark.
//
// Crash safety is owned by the layers around this class: intents are journaled before
// they are enqueued (Osd::AppendForeign with the enqueue callback under the same volume
// lock hold), checkpoints persist SnapshotUnapplied() into the volume
// ("osd/pending-foreign"), and recovery Seed()s the rebuilt queue.
//
// Lock order (docs/CONCURRENCY.md): mu_ here is a leaf lock on the enqueue side —
// callers hold a tag shard lock (never the volume lock) when they block in
// ReserveSlot. The worker acquires store locks / the volume lock only while NOT
// holding mu_.
#ifndef HFAD_SRC_CORE_CONTENT_INDEXER_H_
#define HFAD_SRC_CORE_CONTENT_INDEXER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/index/index_store.h"

namespace hfad {
namespace core {

class ContentIndexer {
 public:
  // One deferred full-text mutation: index `document` as the object's content, or
  // strip the object from the index when `document` is empty.
  struct Op {
    index::ObjectId oid = 0;
    std::string document;
  };

  // Application threads. Two keep full-text tokenization off one core.
  static constexpr size_t kWorkers = 2;

  // Acknowledged-but-unapplied content intents a FileSystem's indexer holds before
  // IndexContent and Remove block.
  static constexpr size_t kQueueCapacity = 4096;

  // `fulltext` (the FULLTEXT store) must outlive this object. `queue_capacity` bounds
  // acknowledged-but-unapplied ops across all workers (mutators block in ReserveSlot
  // beyond it); `batch_limit` caps ops taken per worker application round.
  explicit ContentIndexer(index::IndexStore* fulltext, size_t queue_capacity = kQueueCapacity,
                          size_t batch_limit = 256);
  ~ContentIndexer();

  ContentIndexer(const ContentIndexer&) = delete;
  ContentIndexer& operator=(const ContentIndexer&) = delete;

  // Block until a queue slot is free, then reserve it. MUST be called before the caller
  // takes the volume lock: blocking on the worker while holding the volume lock shared
  // deadlocks against a waiting checkpoint (writer-priority) that the worker's own
  // store writes queue behind.
  void ReserveSlot();

  // Give back a reserved slot that will not be enqueued (journal append failed).
  void ReleaseSlot();

  // Move an op into a previously reserved slot. Never blocks — safe under the volume
  // lock, which is what makes journal-append + enqueue atomic against checkpoints.
  void EnqueueReserved(Op op);

  // Recovery: seed the queue with intents rebuilt from the journal/pending set. May
  // exceed the capacity transiently; takes no reservation.
  void Seed(std::vector<Op> ops);

  // Wait until every op enqueued before this call has been applied (the strict-
  // visibility horizon). Blocks while paused. Returns the sticky first application
  // error.
  Status WaitForContent();

  // The same horizon, but returns immediately while paused (test support) — a paused
  // queue would never drain.
  Status Drain();

  // Queued + in-flight ops, in queue order per worker — the checkpoint provider's and
  // fsck's view of what the store may still be missing.
  std::vector<Op> SnapshotUnapplied() const;

  size_t PendingCount() const;

  // Test support: freeze the workers between batches so crash tests can pin the queue
  // in a partially drained state.
  void SetPausedForTesting(bool paused);

 private:
  // One application thread's FIFO queue, batch in flight and horizon. All of it is
  // guarded by the single mu_.
  struct Worker {
    std::deque<Op> queue;       // Enqueued, not picked up.
    std::vector<Op> in_flight;  // Application in progress.
    uint64_t enqueued = 0;      // Ops ever enqueued to this worker.
    uint64_t applied = 0;       // Ops this worker finished applying.
    std::thread thread;
  };

  void WorkerMain(Worker* worker);

  // Append an op to its worker's queue. Caller holds mu_.
  void PushLocked(Op op);

  // Wait for the horizon of every worker; `until_paused` gives up while paused.
  Status WaitApplied(bool until_paused);

  // Apply one popped batch to the store. Called with mu_ NOT held.
  Status ApplyOps(const std::vector<Op>& ops);

  // Ops enqueued or in application, summed across workers. Caller holds mu_.
  size_t PendingLocked() const;

  index::IndexStore* const fulltext_;
  const size_t capacity_;
  const size_t batch_limit_;

  mutable std::mutex mu_;
  std::condition_variable slots_cv_;    // Reservers waiting for queue room.
  std::condition_variable work_cv_;     // Workers waiting for ops / unpause.
  std::condition_variable applied_cv_;  // Readers waiting on the horizon.

  size_t reserved_ = 0;  // Slots reserved but not yet enqueued.
  bool paused_ = false;
  bool shutdown_ = false;
  Status first_error_;
  // Last: the worker threads use every member above.
  std::array<Worker, kWorkers> workers_;
};

}  // namespace core
}  // namespace hfad

#endif  // HFAD_SRC_CORE_CONTENT_INDEXER_H_
