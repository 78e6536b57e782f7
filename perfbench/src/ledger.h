// Span ledger for the traced run.
//
// A Span marks one call the benchmark makes into a layer (posix.*, core.*) or one call
// the program makes into the benchmark's device (device.*). Spans nest through a
// thread-local stack, so a pager miss read on the caller's thread becomes a child of the
// op that caused it, and the op's self time excludes it. Device calls on the program's
// io threads have no parent and count as that layer's busy time.
//
// Spans stay in per-thread memory while recording and are aggregated (and optionally
// written out) only at the end of the run, after every program thread has stopped.
// When recording is off a Span reads no clock.
#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();

class Ledger {
 public:
  struct Record {
    const char* name = nullptr;
    uint32_t parent = kNoParent;
    uint32_t thread = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t child_ns = 0;  // Time covered by direct children.
  };
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Summary {
    uint64_t count = 0;
    uint64_t self_ns = 0;
    std::vector<uint64_t> durations_ns;
  };

  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  // Per-name totals. Call only when no thread can still record.
  std::map<std::string, Summary> Summarize() const;
  uint64_t span_count() const;
  // One line per span: name, thread, parent index, start and end (ns, run clock).
  bool WriteSpans(const std::string& path) const;

 private:
  friend class Span;
  struct ThreadBuf {
    uint32_t id = 0;
    std::vector<Record> records;
    std::vector<uint32_t> open;  // Indices of open spans, innermost last.
  };
  ThreadBuf* ThisThread();

  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;  // Guards threads_ (registration only).
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
};

class Span {
 public:
  Span(Ledger* ledger, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger::ThreadBuf* buf_ = nullptr;  // Null when not recording.
  uint32_t index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
