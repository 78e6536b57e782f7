#include "src/core/lazy_tag_indexer.h"

#include <algorithm>
#include <map>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace hfad {
namespace core {

LazyTagIndexer::LazyTagIndexer(index::IndexCollection* indexes, size_t queue_capacity,
                               size_t batch_limit)
    : indexes_(indexes),
      capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      batch_limit_(batch_limit == 0 ? 1 : batch_limit) {
  for (Worker& w : workers_) {
    w.thread = std::thread([this, &w] { WorkerMain(&w); });
  }
}

LazyTagIndexer::~LazyTagIndexer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  slots_cv_.notify_all();
  applied_cv_.notify_all();
  for (Worker& w : workers_) w.thread.join();
}

size_t LazyTagIndexer::PendingLocked() const {
  size_t n = 0;
  for (const Worker& w : workers_) n += w.queue.size() + w.in_flight.size();
  return n;
}

void LazyTagIndexer::ReserveSlots(size_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  slots_cv_.wait(lock, [&] {
    if (shutdown_) return true;
    size_t used = reserved_ + PendingLocked();
    // Oversized batches (n > capacity_) are admitted against an empty queue rather
    // than blocking forever.
    return used + n <= capacity_ || used == 0;
  });
  reserved_ += n;
}

void LazyTagIndexer::ReleaseSlots(size_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min(reserved_, n);
  }
  slots_cv_.notify_all();
}

void LazyTagIndexer::PushLocked(std::vector<Op> ops) {
  for (auto& op : ops) {
    Worker& w = workers_[op.oid % kWorkers];
    ++enqueued_total_;
    ++w.enqueued_by_tag[op.name.tag];
    w.queue.push_back(std::move(op));
  }
}

void LazyTagIndexer::EnqueueReserved(std::vector<Op> ops) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min(reserved_, ops.size());
    PushLocked(std::move(ops));
  }
  work_cv_.notify_all();
}

void LazyTagIndexer::Seed(std::vector<Op> ops) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PushLocked(std::move(ops));
  }
  work_cv_.notify_all();
}

Status LazyTagIndexer::WaitForTags(const std::vector<std::string>& tags) {
  std::unique_lock<std::mutex> lock(mu_);
  // Snapshot the horizon first: ops enqueued after this call need not be waited on.
  struct Target {
    const Worker* worker;
    const std::string* tag;
    uint64_t enqueued;
  };
  std::vector<Target> targets;
  for (const Worker& w : workers_) {
    for (const auto& tag : tags) {
      auto it = w.enqueued_by_tag.find(tag);
      if (it != w.enqueued_by_tag.end()) targets.push_back(Target{&w, &tag, it->second});
    }
  }
  applied_cv_.wait(lock, [&] {
    if (shutdown_) return true;
    for (const Target& t : targets) {
      auto it = t.worker->applied_by_tag.find(*t.tag);
      if (it == t.worker->applied_by_tag.end() || it->second < t.enqueued) return false;
    }
    return true;
  });
  return first_error_;
}

Status LazyTagIndexer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = enqueued_total_;
  applied_cv_.wait(lock,
                   [&] { return shutdown_ || paused_ || applied_total_ >= target; });
  return first_error_;
}

std::vector<LazyTagIndexer::Op> LazyTagIndexer::SnapshotUnapplied() const {
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

size_t LazyTagIndexer::PendingCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PendingLocked();
}

void LazyTagIndexer::SetPausedForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  work_cv_.notify_all();
  applied_cv_.notify_all();
}

void LazyTagIndexer::WorkerMain(Worker* worker) {
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

    // Horizons advance even when application failed: the error is sticky and strict
    // readers must surface it rather than block forever.
    for (const auto& op : in_flight) {
      ++applied_total_;
      ++worker->applied_by_tag[op.name.tag];
    }
    in_flight.clear();
    if (!s.ok() && first_error_.ok()) first_error_ = s;

    applied_cv_.notify_all();
    slots_cv_.notify_all();
  }
}

Status LazyTagIndexer::ApplyOps(const std::vector<Op>& ops) {
  metrics::ScopedLatency latency(metrics::Hist::kIndexerApply);
  trace::OpScope op_scope("indexer_apply");
  // Collapse the FIFO batch to the LAST op per (tag, value, oid) — earlier ops are
  // superseded (add-then-remove nets to remove against a NotFound-tolerant store). A
  // FULLTEXT value is the whole document, so there the key is (tag, oid): the last
  // version submitted wins. std::map keeps per-tag groups together and values
  // pre-sorted for ApplyBatch's bulk path.
  std::map<std::string, std::map<std::pair<std::string, index::ObjectId>, const Op*>> by_tag;
  for (const auto& op : ops) {
    const bool document = op.name.tag == index::kTagFulltext;
    by_tag[op.name.tag][{document ? std::string() : op.name.value, op.oid}] = &op;
  }

  Status first;
  for (const auto& tag_group : by_tag) {
    index::IndexStore* store = indexes_->store(tag_group.first);
    if (store == nullptr) {
      // Stores are validated before enqueue; a missing one here means the collection
      // changed underneath us. Record and keep draining the rest.
      if (first.ok())
        first = Status::Corruption("lazy indexer: no store for tag " + tag_group.first);
      continue;
    }
    std::vector<std::pair<std::string, index::ObjectId>> adds;
    std::vector<std::pair<std::string, index::ObjectId>> removes;
    for (const auto& entry : tag_group.second) {
      const Op& op = *entry.second;
      (op.add ? adds : removes).emplace_back(op.name.value, op.oid);
    }
    Status s = store->ApplyBatch(adds, removes);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace core
}  // namespace hfad
