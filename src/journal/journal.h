// Write-ahead log for the hFAD OSD (§3.3: "the OSD may be transactional").
//
// The journal occupies a fixed region of the device, written directly (never through the
// pager). Records are appended in memory and made durable in batches (group commit): one
// contiguous device write plus one Sync covers every record appended since the previous
// Commit. Layout of one record:
//
//   [u32 masked CRC32C][u32 payload length][u64 sequence][payload bytes]
//
// The CRC covers (length, sequence, payload), is masked as in crc32.h, and a record of all
// zeroes marks the end of the log. Sequences increase by exactly one per record.
//
// Commit runs a leader/follower protocol (see docs/CONCURRENCY.md): every Commit() caller
// targets the highest sequence appended so far; whoever finds no commit in flight becomes
// the leader, drains the pending buffer, and performs the Write+Sync with the journal lock
// RELEASED — so Append() never waits out an in-flight fsync — then advances the
// committed_seq_ watermark and wakes the followers. A follower whose target is already
// covered returns without touching the device: one fsync amortizes across every thread
// that committed inside its window.
//
// The log is linear, not a ring: when the region fills, Append returns NoSpace and the
// caller must Checkpoint() — i.e. durably flush the state the journal protects, then reset
// the log. Combined with a no-steal pager this gives the classic no-steal/force-on-
// checkpoint discipline: on-disk state is always exactly the last checkpoint, and crash
// recovery replays the journal suffix on top of it.
//
// Recovery scans from the region start, stopping at the first corrupt, torn, or absent
// record. A crash during Commit() therefore durably preserves some *prefix* of the batch:
// every fully-written record survives, the torn one is discarded by its CRC. Callers must
// treat each record as one complete, independently-applicable operation (the OSD does);
// callers needing all-or-nothing batches should frame them inside a single record.
#ifndef HFAD_SRC_JOURNAL_JOURNAL_H_
#define HFAD_SRC_JOURNAL_JOURNAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/retry.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/storage/block_device.h"

namespace hfad {

namespace io {
class IoEngine;
}  // namespace io

namespace journal {

// Fixed per-record framing overhead (CRC + length + sequence).
constexpr uint64_t kRecordHeaderSize = 16;

// One record of an AppendBatch. The record's payload is `head` followed by `body`: a
// caller can journal a large buffer it does not own (a cached page) behind a small
// prefix without concatenating the two first. Both slices need only live until the
// append returns.
struct RecordParts {
  Slice head;
  Slice body;
};

class Journal {
 public:
  // The journal owns [region_offset, region_offset + region_size) of `device`. A fresh
  // journal starts empty with first_sequence as its next sequence number; call Recover()
  // instead when opening an existing volume.
  Journal(BlockDevice* device, uint64_t region_offset, uint64_t region_size,
          uint64_t first_sequence = 1);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Waits out any in-flight commit chain. Callers owning an IoEngine must destroy
  // (or Shutdown) the engine first so its completion threads have quiesced.
  ~Journal();

  // Route commits through `engine` (null reverts to synchronous leader commits).
  // The group-commit leader then becomes a completion-driven state machine:
  // reserve -> submit write -> submit sync -> advance the watermark from the sync
  // completion. No thread parks inside Sync(); CommitThrough waiters sleep on the
  // journal condvar and thousands of CommitAsync callers can be in flight at
  // once. Call before the journal is shared across threads.
  void SetIoEngine(io::IoEngine* engine);

  // Retry transiently failing commit IO. Sync leaders sleep the policy's
  // backoff between attempts (journal lock released); async chain links
  // resubmit immediately from the completion thread — a completion thread
  // must never sleep. Call before the journal is shared across threads.
  void SetRetryPolicy(const RetryPolicy& retry);

  // Buffer one record. It is durable only after a Commit() covers its sequence. Returns
  // the record's sequence number, or NoSpace when the region cannot hold it (checkpoint,
  // then retry). Holds the journal lock only to reserve + copy: an in-flight commit's
  // device Write/Sync never blocks an append. The one-record case of AppendBatch.
  Result<uint64_t> Append(Slice payload);

  // Buffer `records` as consecutive records, all or nothing: space is checked once for
  // the whole batch (NoSpace appends none of them), the pending buffer grows once, and
  // each record is framed and CRC'd straight from its parts. Returns the last record's
  // sequence (next_sequence() - 1 for an empty batch). The bytes buffered are exactly
  // those of appending each record's head + body one at a time.
  Result<uint64_t> AppendBatch(const std::vector<RecordParts>& records);

  // Make every record appended before this call durable. Leader/follower group commit:
  // returns as soon as the committed watermark covers the caller's target — possibly
  // without any device IO of its own. On IO failure the batch's records are returned to
  // the pending buffer (a follower of a failed leader retries as leader and reports its
  // own outcome).
  Status Commit();

  // Block until the watermark covers `sequence` (committing as leader when needed).
  // Sequences from a previous log generation (at or below the last Reset) count as
  // covered. Commit() is CommitThrough(<highest appended>).
  Status CommitThrough(uint64_t sequence);

  // Non-blocking CommitThrough: `done` fires with the commit outcome once the
  // watermark covers `sequence` (immediately, from this call, when it already
  // does). Requires no dedicated thread per caller — completions ride the engine's
  // completion thread, so `done` must follow the completion-thread rules in
  // docs/CONCURRENCY.md (leaf locks only, never block on another completion).
  // Without an engine this degrades to a synchronous CommitThrough + callback.
  void CommitAsync(uint64_t sequence, std::function<void(Status)> done);

  // Number of records appended but not yet durable (pending buffer + in-flight batch).
  size_t pending_records() const;

  // Highest sequence number known durable (the group-commit watermark).
  uint64_t committed_sequence() const;

  // Bytes of region left for new records (committed + in-flight + pending accounted).
  uint64_t SpaceRemaining() const;

  // Fraction of the region consumed (same accounting as SpaceRemaining): the OSD kicks
  // its threshold checkpoint off this.
  double Occupancy() const;

  // Logically empty the log after the protected state has been durably checkpointed.
  // Sequence numbering continues; the head of the region is zeroed so recovery stops
  // there. Waits out any in-flight commit; pending records are discarded (the checkpoint
  // made them durable by other means).
  Status Reset();

  // Scan the region from the start, calling fn(sequence, payload) for each intact record,
  // in order. Stops at the first invalid record. Leaves the journal positioned to append
  // after the last valid record and returns how many records were recovered.
  Result<uint64_t> Recover(const std::function<void(uint64_t sequence, Slice payload)>& fn);

  // Sequence number the next Append will receive.
  uint64_t next_sequence() const;

  // Total committed bytes currently in the region (test/bench support).
  uint64_t committed_bytes() const;

 private:
  // Shared body of Append and AppendBatch.
  Result<uint64_t> AppendRecords(const RecordParts* records, size_t count);

  // One link of the async commit chain: the batch drained by an async leader, alive
  // (via shared_ptr) until its sync completion lands — the engine requires request
  // buffers to outlive their completions.
  struct AsyncCommitState;

  // Leader body: drain pending_, Write+Sync with `lock` released, advance the watermark
  // (or restore the batch on failure), wake followers. Caller holds `lock` and has
  // already set commit_in_progress_.
  Status LeadCommit(std::unique_lock<std::mutex>& lock);

  // Async leader election: drain pending_ into a chain link and mark the commit in
  // progress. Caller holds mu_ and must call SubmitAsyncBatch with mu_ released.
  std::shared_ptr<AsyncCommitState> PrepareAsyncCommitLocked();

  // Submit the link's write; its completion submits the sync; the sync's completion
  // calls FinishAsyncCommit. Called with mu_ RELEASED (engine locks are leaves).
  void SubmitAsyncBatch(std::shared_ptr<AsyncCommitState> st);

  // Chain epilogue, called from a completion thread: advance the watermark (or
  // restore the batch), fire covered waiters, and lead the next link if uncovered
  // waiters remain. Takes mu_; fires callbacks only after releasing it.
  void FinishAsyncCommit(std::shared_ptr<AsyncCommitState> st, Status s);

  BlockDevice* const device_;
  const uint64_t region_offset_;
  const uint64_t region_size_;

  mutable std::mutex mu_;
  // Signalled when a commit finishes (watermark advanced or leader failed) so followers
  // re-check their target, and when commit_in_progress_ clears.
  std::condition_variable commit_cv_;
  bool commit_in_progress_ = false;

  uint64_t next_seq_;
  uint64_t committed_seq_;       // Highest durable sequence (== next_seq_-1 when clean).
  uint64_t write_pos_ = 0;       // Byte offset within the region of the next commit.
  uint64_t inflight_bytes_ = 0;  // Bytes drained by the in-flight leader (space-reserved).
  std::string pending_;          // Encoded records awaiting a commit batch.
  size_t pending_count_ = 0;
  size_t inflight_count_ = 0;    // Records in the in-flight batch.

  // Transient-failure policy for commit IO (write, sync, Reset's head zeroing).
  RetryPolicy retry_ = RetryPolicy::None();

  // ---- Async commit chain (engine_ != nullptr) ----
  io::IoEngine* engine_ = nullptr;
  // CommitAsync callers whose target the watermark does not yet cover.
  std::vector<std::pair<uint64_t, std::function<void(Status)>>> async_waiters_;
  // Lead-once bookkeeping for async CommitThrough: a blocking caller that kicked
  // chain generation G returns last_chain_status_ once chain_done_gen_ >= G,
  // mirroring the sync mode where each caller leads at most once and reports its
  // own batch's outcome.
  uint64_t chain_next_gen_ = 1;
  uint64_t chain_done_gen_ = 0;
  Status last_chain_status_;
};

}  // namespace journal
}  // namespace hfad

#endif  // HFAD_SRC_JOURNAL_JOURNAL_H_
