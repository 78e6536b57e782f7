#include "perfbench/src/ledger.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

Ledger::ThreadBuf* Ledger::ThisThread() {
  thread_local const Ledger* owner = nullptr;
  thread_local ThreadBuf* buf = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadBuf>());
    threads_.back()->id = static_cast<uint32_t>(threads_.size() - 1);
    buf = threads_.back().get();
    owner = this;
  }
  return buf;
}

Span::Span(Ledger* ledger, const char* name) {
  if (ledger == nullptr || !ledger->recording()) {
    return;
  }
  buf_ = ledger->ThisThread();
  index_ = static_cast<uint32_t>(buf_->records.size());
  Ledger::Record r;
  r.name = name;
  r.parent = buf_->open.empty() ? Ledger::kNoParent : buf_->open.back();
  r.thread = buf_->id;
  buf_->records.push_back(r);
  buf_->open.push_back(index_);
  buf_->records[index_].start_ns = NowNs();
}

Span::~Span() {
  if (buf_ == nullptr) {
    return;
  }
  Ledger::Record& r = buf_->records[index_];
  r.end_ns = NowNs();
  buf_->open.pop_back();
  if (r.parent != Ledger::kNoParent) {
    buf_->records[r.parent].child_ns += r.end_ns - r.start_ns;
  }
}

std::map<std::string, Ledger::Summary> Ledger::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Summary> out;
  for (const auto& t : threads_) {
    for (const Record& r : t->records) {
      Summary& s = out[r.name];
      const uint64_t dur = r.end_ns - r.start_ns;
      s.count++;
      s.self_ns += dur > r.child_ns ? dur - r.child_ns : 0;
      s.durations_ns.push_back(dur);
    }
  }
  return out;
}

uint64_t Ledger::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) {
    n += t->records.size();
  }
  return n;
}

bool Ledger::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->records.size(); i++) {
      const Record& r = t->records[i];
      std::fprintf(f, "%s %u %zu %ld %llu %llu\n", r.name, t->id, i,
                   r.parent == kNoParent ? -1L : static_cast<long>(r.parent),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
