#include "src/core/content_indexer.h"

#include <algorithm>
#include <map>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace hfad {
namespace core {

ContentIndexer::ContentIndexer(index::IndexStore* fulltext, size_t queue_capacity,
                               size_t batch_limit)
    : fulltext_(fulltext),
      capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      batch_limit_(batch_limit == 0 ? 1 : batch_limit) {
  for (Worker& w : workers_) {
    w.thread = std::thread([this, &w] { WorkerMain(&w); });
  }
}

ContentIndexer::~ContentIndexer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  slots_cv_.notify_all();
  applied_cv_.notify_all();
  for (Worker& w : workers_) w.thread.join();
}

size_t ContentIndexer::PendingLocked() const {
  size_t n = 0;
  for (const Worker& w : workers_) n += w.queue.size() + w.in_flight.size();
  return n;
}

void ContentIndexer::ReserveSlot() {
  std::unique_lock<std::mutex> lock(mu_);
  slots_cv_.wait(lock,
                 [&] { return shutdown_ || reserved_ + PendingLocked() < capacity_; });
  reserved_++;
}

void ContentIndexer::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min<size_t>(reserved_, 1);
  }
  slots_cv_.notify_all();
}

void ContentIndexer::PushLocked(Op op) {
  Worker& w = workers_[op.oid % kWorkers];
  ++w.enqueued;
  w.queue.push_back(std::move(op));
}

void ContentIndexer::EnqueueReserved(Op op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min<size_t>(reserved_, 1);
    PushLocked(std::move(op));
  }
  work_cv_.notify_all();
}

void ContentIndexer::Seed(std::vector<Op> ops) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Op& op : ops) PushLocked(std::move(op));
  }
  work_cv_.notify_all();
}

Status ContentIndexer::WaitApplied(bool until_paused) {
  std::unique_lock<std::mutex> lock(mu_);
  // Snapshot the horizon first: ops enqueued after this call need not be waited on.
  std::array<uint64_t, kWorkers> target;
  for (size_t i = 0; i < kWorkers; i++) target[i] = workers_[i].enqueued;
  applied_cv_.wait(lock, [&] {
    if (shutdown_ || (until_paused && paused_)) return true;
    for (size_t i = 0; i < kWorkers; i++) {
      if (workers_[i].applied < target[i]) return false;
    }
    return true;
  });
  return first_error_;
}

Status ContentIndexer::WaitForContent() { return WaitApplied(/*until_paused=*/false); }

Status ContentIndexer::Drain() { return WaitApplied(/*until_paused=*/true); }

std::vector<ContentIndexer::Op> ContentIndexer::SnapshotUnapplied() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Op> out;
  // Per worker: in-flight first, then queued — within a worker that is enqueue
  // order, and per-object order only depends on one worker (oids are partitioned).
  for (const Worker& w : workers_) {
    out.insert(out.end(), w.in_flight.begin(), w.in_flight.end());
    out.insert(out.end(), w.queue.begin(), w.queue.end());
  }
  return out;
}

size_t ContentIndexer::PendingCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PendingLocked();
}

void ContentIndexer::SetPausedForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  work_cv_.notify_all();
  applied_cv_.notify_all();
}

void ContentIndexer::WorkerMain(Worker* worker) {
  std::deque<Op>& queue = worker->queue;
  std::vector<Op>& in_flight = worker->in_flight;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || (!paused_ && !queue.empty()); });
    if (shutdown_) return;

    size_t take = std::min(batch_limit_, queue.size());
    in_flight.assign(std::make_move_iterator(queue.begin()),
                     std::make_move_iterator(queue.begin() + static_cast<ptrdiff_t>(take)));
    queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(take));

    lock.unlock();
    Status s = ApplyOps(in_flight);
    lock.lock();

    // The horizon advances even when application failed: the error is sticky and
    // strict readers must surface it rather than block forever.
    worker->applied += in_flight.size();
    in_flight.clear();
    if (!s.ok() && first_error_.ok()) first_error_ = s;

    applied_cv_.notify_all();
    slots_cv_.notify_all();
  }
}

Status ContentIndexer::ApplyOps(const std::vector<Op>& ops) {
  metrics::ScopedLatency latency(metrics::Hist::kIndexerApply);
  trace::OpScope op_scope("indexer_apply");
  // Collapse the FIFO batch to the LAST op per oid: a document is the whole content,
  // so the version submitted last wins (index-then-strip nets to strip against a
  // NotFound-tolerant store). std::map hands ApplyBatch the oids pre-sorted.
  std::map<index::ObjectId, const Op*> last;
  for (const auto& op : ops) last[op.oid] = &op;
  std::vector<std::pair<std::string, index::ObjectId>> adds;
  std::vector<std::pair<std::string, index::ObjectId>> removes;
  for (const auto& [oid, op] : last) {
    if (op->document.empty()) {
      removes.emplace_back(std::string(), oid);
    } else {
      adds.emplace_back(op->document, oid);
    }
  }
  return fulltext_->ApplyBatch(adds, removes);
}

}  // namespace core
}  // namespace hfad
