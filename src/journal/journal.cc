#include "src/journal/journal.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/coding.h"
#include "src/common/crc32.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/io/io_engine.h"

namespace hfad {
namespace journal {

namespace {

// CRC over (length, sequence, payload) — everything after the CRC field itself. The
// payload may arrive in two parts (RecordParts); the CRC is that of their concatenation.
uint32_t RecordCrc(uint32_t length, uint64_t sequence, Slice head, Slice body = Slice()) {
  uint8_t hdr[12];
  EncodeFixed32(hdr, length);
  EncodeFixed64(hdr + 4, sequence);
  uint32_t crc = Crc32c(Slice(hdr, sizeof(hdr)));
  return Crc32cExtend(Crc32cExtend(crc, head), body);
}

}  // namespace

// One link of the async chain. Owns the drained batch bytes so the engine's
// buffer-lifetime rule holds without copying, and carries the bookkeeping the
// completion needs to finish what LeadCommit does synchronously.
struct Journal::AsyncCommitState {
  uint64_t gen = 0;             // Chain generation (lead-once accounting).
  std::string batch;            // Drained pending_ bytes; Slice target for the write.
  size_t count = 0;             // Records in the batch.
  uint64_t batch_last = 0;      // Highest sequence in the batch.
  uint64_t pos = 0;             // write_pos_ at drain time.
  int attempts = 1;             // Submissions so far (retry accounting).
  std::chrono::steady_clock::time_point start;
};

Journal::Journal(BlockDevice* device, uint64_t region_offset, uint64_t region_size,
                 uint64_t first_sequence)
    : device_(device),
      region_offset_(region_offset),
      region_size_(region_size),
      next_seq_(first_sequence),
      committed_seq_(first_sequence - 1) {}

Journal::~Journal() {
  // An async chain link may still be in flight; its completion touches this
  // object, so wait it out. (Engines owned above the journal are shut down
  // before the journal is destroyed, which also drives this to quiescence.)
  std::unique_lock<std::mutex> lock(mu_);
  commit_cv_.wait(lock, [&] { return !commit_in_progress_; });
}

void Journal::SetIoEngine(io::IoEngine* engine) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_ = engine;
}

void Journal::SetRetryPolicy(const RetryPolicy& retry) {
  std::lock_guard<std::mutex> lock(mu_);
  retry_ = retry;
}

Result<uint64_t> Journal::Append(Slice payload) {
  const RecordParts record{payload, Slice()};
  return AppendRecords(&record, 1);
}

Result<uint64_t> Journal::AppendBatch(const std::vector<RecordParts>& records) {
  return AppendRecords(records.data(), records.size());
}

Result<uint64_t> Journal::AppendRecords(const RecordParts* records, size_t count) {
  uint64_t need = 0;
  for (size_t i = 0; i < count; i++) {
    need += kRecordHeaderSize + records[i].head.size() + records[i].body.size();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Keep one trailing header's worth of zeroes so recovery always sees a terminator.
  // The in-flight batch still occupies [write_pos_, +inflight_bytes_) until its leader
  // either advances write_pos_ or returns the records to pending_.
  if (write_pos_ + inflight_bytes_ + pending_.size() + need + kRecordHeaderSize >
      region_size_) {
    return Status::NoSpace("journal region full (" + std::to_string(region_size_) +
                           " bytes); checkpoint required");
  }
  // Grow once for the whole batch (at least doubling, so one-record appends stay
  // amortized O(1)): a checkpoint epilogue of thousands of page images otherwise
  // reallocates, and page-faults through, about twice its own size.
  const size_t want = pending_.size() + need;
  if (want > pending_.capacity()) {
    pending_.reserve(std::max(want, 2 * pending_.capacity()));
  }
  for (size_t i = 0; i < count; i++) {
    const RecordParts& r = records[i];
    const uint32_t length = static_cast<uint32_t>(r.head.size() + r.body.size());
    const uint64_t seq = next_seq_++;
    uint8_t hdr[kRecordHeaderSize];
    EncodeFixed32(hdr, MaskCrc(RecordCrc(length, seq, r.head, r.body)));
    EncodeFixed32(hdr + 4, length);
    EncodeFixed64(hdr + 8, seq);
    pending_.append(reinterpret_cast<const char*>(hdr), sizeof(hdr));
    for (Slice part : {r.head, r.body}) {
      if (!part.empty()) pending_.append(part.data(), part.size());
    }
  }
  pending_count_ += count;
  return next_seq_ - 1;
}

Status Journal::LeadCommit(std::unique_lock<std::mutex>& lock) {
  // Drain the pending buffer: the batch covers (committed_seq_, batch_last].
  std::string batch;
  batch.swap(pending_);
  const size_t batch_count = pending_count_;
  pending_count_ = 0;
  const uint64_t batch_last = next_seq_ - 1;
  const uint64_t pos = write_pos_;
  inflight_bytes_ = batch.size();
  inflight_count_ = batch_count;

  lock.unlock();  // Appenders (and new followers) proceed during the Write+Sync.
  Status s;
  {
    // The histogram records every group commit; the span only lands when the
    // leading thread is inside a sampled operation.
    metrics::ScopedLatency latency(metrics::Hist::kJournalCommit);
    trace::SpanScope span("journal_commit");
    s = retry_.RunWithRetry([&] {
      Status ws = device_->Write(region_offset_ + pos, Slice(batch));
      if (ws.ok()) {
        ws = device_->Sync();
      }
      return ws;
    });
  }
  lock.lock();

  inflight_bytes_ = 0;
  inflight_count_ = 0;
  if (s.ok()) {
    write_pos_ += batch.size();
    committed_seq_ = batch_last;
    stats::Add(stats::Counter::kJournalCommits);
    stats::Add(stats::Counter::kJournalRecords, batch_count);
    stats::Add(stats::Counter::kJournalBytes, batch.size());
  } else {
    // Failed batches stay pending (prepended: records must remain in sequence order
    // ahead of anything appended during the failed IO).
    batch.append(pending_);
    pending_.swap(batch);
    pending_count_ += batch_count;
  }
  commit_in_progress_ = false;
  commit_cv_.notify_all();
  return s;
}

std::shared_ptr<Journal::AsyncCommitState> Journal::PrepareAsyncCommitLocked() {
  auto st = std::make_shared<AsyncCommitState>();
  st->gen = chain_next_gen_++;
  st->batch.swap(pending_);
  st->count = pending_count_;
  pending_count_ = 0;
  st->batch_last = next_seq_ - 1;
  st->pos = write_pos_;
  inflight_bytes_ = st->batch.size();
  inflight_count_ = st->count;
  commit_in_progress_ = true;
  st->start = std::chrono::steady_clock::now();
  return st;
}

void Journal::SubmitAsyncBatch(std::shared_ptr<AsyncCommitState> st) {
  // The leader never parks in Sync(): the write's completion submits the sync,
  // the sync's completion advances the watermark. Both callbacks run on engine
  // completion threads and take only mu_ (a leaf lock on that path).
  io::IoRequest write;
  write.op = io::IoOp::kWrite;
  write.offset = region_offset_ + st->pos;
  write.data = Slice(st->batch);
  write.on_complete = [this, st](io::IoCompletion c) {
    if (!c.status.ok()) {
      // Transient failure: resubmit the whole link immediately (completion
      // threads never sleep; rewriting the same batch bytes is idempotent).
      if (retry_.ShouldRetry(c.status, st->attempts)) {
        st->attempts++;
        SubmitAsyncBatch(st);
        return;
      }
      FinishAsyncCommit(st, c.status);
      return;
    }
    io::IoRequest sync;
    sync.op = io::IoOp::kSync;
    sync.on_complete = [this, st](io::IoCompletion sc) {
      if (!sc.status.ok() && retry_.ShouldRetry(sc.status, st->attempts)) {
        st->attempts++;
        SubmitAsyncBatch(st);
        return;
      }
      FinishAsyncCommit(st, sc.status);
    };
    auto h = engine_->Submit(std::move(sync));
    if (!h.ok()) {
      FinishAsyncCommit(st, h.status());
    }
  };
  auto h = engine_->Submit(std::move(write));
  if (!h.ok()) {
    FinishAsyncCommit(std::move(st), h.status());
  }
}

void Journal::FinishAsyncCommit(std::shared_ptr<AsyncCommitState> st, Status s) {
  std::vector<std::function<void(Status)>> fire;
  Status fire_status = s;
  std::shared_ptr<AsyncCommitState> next;
  {
    std::unique_lock<std::mutex> lock(mu_);
    inflight_bytes_ = 0;
    inflight_count_ = 0;
    if (s.ok()) {
      write_pos_ += st->batch.size();
      committed_seq_ = st->batch_last;
      stats::Add(stats::Counter::kJournalCommits);
      stats::Add(stats::Counter::kJournalRecords, st->count);
      stats::Add(stats::Counter::kJournalBytes, st->batch.size());
    } else {
      // Failed batches stay pending, prepended ahead of anything appended while
      // the chain link was in flight (records must stay in sequence order).
      st->batch.append(pending_);
      pending_.swap(st->batch);
      pending_count_ += st->count;
    }
    chain_done_gen_ = st->gen;
    last_chain_status_ = s;
    commit_in_progress_ = false;
    if (s.ok()) {
      // Covered waiters resolve now; uncovered ones elect this completion thread
      // as the next leader, keeping the chain dense under a commit storm.
      auto split = std::partition(
          async_waiters_.begin(), async_waiters_.end(),
          [&](const auto& w) { return w.first > committed_seq_; });
      for (auto it = split; it != async_waiters_.end(); ++it) {
        fire.push_back(std::move(it->second));
      }
      async_waiters_.erase(split, async_waiters_.end());
      fire_status = Status::Ok();
      if (!async_waiters_.empty()) {
        if (!pending_.empty()) {
          next = PrepareAsyncCommitLocked();
        } else {
          // Unreachable by construction (an uncovered target implies records in
          // pending_), but never strand a waiter if the invariant ever bends.
          for (auto& w : async_waiters_) fire.push_back(std::move(w.second));
          async_waiters_.clear();
        }
      }
    } else {
      // Every waiter learns this chain link's failure, exactly as a blocking
      // follower of a failed sync leader retries/reports for itself.
      for (auto& w : async_waiters_) fire.push_back(std::move(w.second));
      async_waiters_.clear();
    }
    commit_cv_.notify_all();
  }
  metrics::Record(metrics::Hist::kJournalCommit,
                  static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - st->start)
                          .count()));
  for (auto& f : fire) f(fire_status);
  if (next) SubmitAsyncBatch(std::move(next));
}

Status Journal::CommitThrough(uint64_t sequence) {
  std::unique_lock<std::mutex> lock(mu_);
  // Clamp to what has actually been appended: sequences from before a Reset() are
  // durable by checkpoint, and asking beyond next_seq_-1 is a caller bug we degrade
  // to "everything appended so far".
  uint64_t target = std::min(sequence, next_seq_ - 1);
  if (engine_ != nullptr) {
    // Async mode: kick the chain instead of leading in place, then sleep on the
    // watermark. Lead-once: after this caller's generation completes it reports
    // that link's outcome rather than retrying forever on a failing device.
    bool led = false;
    uint64_t my_gen = 0;
    for (;;) {
      if (committed_seq_ >= target) {
        return Status::Ok();
      }
      if (led && chain_done_gen_ >= my_gen) {
        return last_chain_status_;
      }
      if (!commit_in_progress_ && !led) {
        if (pending_.empty()) {
          return Status::Ok();  // Reset raced ahead of us.
        }
        auto st = PrepareAsyncCommitLocked();
        my_gen = st->gen;
        led = true;
        lock.unlock();
        SubmitAsyncBatch(std::move(st));
        lock.lock();
        continue;
      }
      commit_cv_.wait(lock);
    }
  }
  for (;;) {
    if (committed_seq_ >= target) {
      return Status::Ok();
    }
    if (!commit_in_progress_) {
      break;
    }
    commit_cv_.wait(lock);
  }
  if (pending_.empty()) {
    return Status::Ok();  // Nothing to write (e.g. Reset raced ahead of us).
  }
  commit_in_progress_ = true;
  return LeadCommit(lock);
}

void Journal::CommitAsync(uint64_t sequence, std::function<void(Status)> done) {
  std::shared_ptr<AsyncCommitState> st;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (engine_ == nullptr) {
      lock.unlock();
      done(CommitThrough(sequence));  // Degraded mode: block, then report.
      return;
    }
    uint64_t target = std::min(sequence, next_seq_ - 1);
    if (committed_seq_ >= target ||
        (!commit_in_progress_ && pending_.empty())) {
      lock.unlock();  // Covered already (or Reset raced): resolve immediately.
      done(Status::Ok());
      return;
    }
    async_waiters_.emplace_back(target, std::move(done));
    if (commit_in_progress_) {
      return;  // The in-flight link (or its successor) will resolve us.
    }
    st = PrepareAsyncCommitLocked();
  }
  SubmitAsyncBatch(std::move(st));
}

Status Journal::Commit() {
  // The target is re-read under the lock inside CommitThrough; max() simply means
  // "everything appended before the call".
  return CommitThrough(~uint64_t{0});
}

size_t Journal::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_count_ + inflight_count_;
}

uint64_t Journal::committed_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_seq_;
}

uint64_t Journal::SpaceRemaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t used =
      write_pos_ + inflight_bytes_ + pending_.size() + kRecordHeaderSize;  // + terminator.
  return used >= region_size_ ? 0 : region_size_ - used;
}

double Journal::Occupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t used = write_pos_ + inflight_bytes_ + pending_.size() + kRecordHeaderSize;
  if (region_size_ == 0) {
    return 1.0;
  }
  return used >= region_size_ ? 1.0
                              : static_cast<double>(used) / static_cast<double>(region_size_);
}

Status Journal::Reset() {
  std::vector<std::function<void(Status)>> fire;
  Status result;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // An in-flight leader still owns [write_pos_, +inflight_bytes_); wait it out so
    // the head zeroes below cannot be overwritten by its batch.
    commit_cv_.wait(lock, [&] { return !commit_in_progress_; });
    pending_.clear();
    pending_count_ = 0;
    write_pos_ = 0;
    committed_seq_ = next_seq_ - 1;  // Everything before the reset is checkpoint-durable.
    // Any async waiter still parked is now covered by the checkpoint that mandated
    // this reset (in steady state the chain epilogue already drained them all).
    // Fired after the head is zeroed: releasing mu_ earlier would let a resolved
    // caller kick a new chain writing at write_pos_ 0 concurrently with the zeroes.
    for (auto& w : async_waiters_) fire.push_back(std::move(w.second));
    async_waiters_.clear();
    // Zero one header so a recovery scan terminates immediately.
    std::string zeroes(kRecordHeaderSize, '\0');
    result = retry_.RunWithRetry([&] {
      Status ws = device_->Write(region_offset_, Slice(zeroes));
      if (ws.ok()) {
        ws = device_->Sync();
      }
      return ws;
    });
  }
  for (auto& f : fire) f(Status::Ok());
  return result;
}

Result<uint64_t> Journal::Recover(
    const std::function<void(uint64_t sequence, Slice payload)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  commit_cv_.wait(lock, [&] { return !commit_in_progress_; });
  pending_.clear();
  pending_count_ = 0;
  // Recovery supersedes any parked async waiter (their records either survived on
  // disk or are gone with the crash being recovered from); resolve rather than
  // strand them. Ok mirrors Reset: the caller owns interpreting recovered state.
  if (!async_waiters_.empty()) {
    auto orphans = std::move(async_waiters_);
    async_waiters_.clear();
    lock.unlock();
    for (auto& w : orphans) w.second(Status::Ok());
    lock.lock();
  }
  uint64_t pos = 0;
  uint64_t recovered = 0;
  bool have_prev_seq = false;
  uint64_t prev_seq = 0;
  while (pos + kRecordHeaderSize <= region_size_) {
    std::string hdr;
    HFAD_RETURN_IF_ERROR(retry_.RunWithRetry(
        [&] { return device_->Read(region_offset_ + pos, kRecordHeaderSize, &hdr); }));
    const uint8_t* h = reinterpret_cast<const uint8_t*>(hdr.data());
    uint32_t masked = DecodeFixed32(h);
    uint32_t length = DecodeFixed32(h + 4);
    uint64_t seq = DecodeFixed64(h + 8);
    if (masked == 0 && length == 0 && seq == 0) {
      break;  // Clean end of log.
    }
    if (pos + kRecordHeaderSize + length > region_size_) {
      break;  // Length field runs off the region: torn header.
    }
    std::string payload;
    HFAD_RETURN_IF_ERROR(retry_.RunWithRetry([&] {
      return device_->Read(region_offset_ + pos + kRecordHeaderSize, length, &payload);
    }));
    if (UnmaskCrc(masked) != RecordCrc(length, seq, Slice(payload))) {
      break;  // Torn or corrupt record: the log ends here.
    }
    if (have_prev_seq && seq != prev_seq + 1) {
      break;  // Stale record from a previous log generation.
    }
    fn(seq, Slice(payload));
    recovered++;
    prev_seq = seq;
    have_prev_seq = true;
    pos += kRecordHeaderSize + length;
  }
  write_pos_ = pos;
  if (have_prev_seq) {
    next_seq_ = prev_seq + 1;
  }
  committed_seq_ = next_seq_ - 1;  // Everything on the device is durable by definition.
  return recovered;
}

uint64_t Journal::next_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t Journal::committed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_pos_;
}

}  // namespace journal
}  // namespace hfad
