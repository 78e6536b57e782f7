// The benchmark's run state: inputs from the seed, the op recorder every client uses,
// failure and correctness accounting, and the traced-run counter attribution.
//
// Failure accounting follows one rule. A call the program reports as failed, deferred
// work that reports failure (WaitForIndexing, Sync), or an acknowledged item missing
// after recovery is a counted failure: it raises error_rate and the run goes on. Only a
// successful call whose answer disagrees with the reference model is incorrect output,
// and that fails the run.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/bench_device.h"
#include "perfbench/src/ledger.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/core/filesystem.h"

namespace perfbench {

// xoshiro256** seeded through splitmix64: the benchmark's only source of inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Uniform(hi - lo + 1); }
  double Double() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }
  bool Chance(double p) { return Double() < p; }

 private:
  uint64_t s_[4];
};

// Zipf(s) over [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// Op classes for latency reporting; "op" percentiles pool all four.
enum class Kind : int { kLookup = 0, kMutate, kSync, kAccess, kNumKinds };
constexpr int kNumKinds = static_cast<int>(Kind::kNumKinds);

// Core histograms whose time PosixFs calls spend inside FileSystem (posix.self_us).
constexpr std::array<hfad::metrics::Hist, 6> kCoreHists = {
    hfad::metrics::Hist::kCreate,     hfad::metrics::Hist::kAddTag,
    hfad::metrics::Hist::kRemoveTag,  hfad::metrics::Hist::kFind,
    hfad::metrics::Hist::kSearchText, hfad::metrics::Hist::kBatchCommit};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string plant;       // "", "wrong" or "error": the self-test's planted defects.
  bool durability = false;  // Run the crash/recover and close/reopen cycles.
  std::string spans_path;  // Traced run: where to write the spans ("" = don't).
};

// Counter deltas attributed to op classes during traced rounds.
struct Attribution {
  std::array<std::array<uint64_t, hfad::stats::kNumCounters>, kNumKinds> counters{};
  std::array<uint64_t, kNumKinds> ops{};
  // posix.*: call time, core histogram time and core calls recorded inside those calls.
  uint64_t posix_ops = 0, posix_ns = 0, posix_core_ns = 0, posix_core_calls = 0;
  // Find's PlanStats.
  uint64_t finds = 0, find_results = 0, rows_scanned = 0, probes = 0;
  void Merge(const Attribution& o);
};

class Run;

// One closed-loop client. Not thread-safe; each client thread owns one.
class Client {
 public:
  Client(Run* run, int id, uint64_t seed);

  // Time `fn` (a call into PosixFs or FileSystem), count it, and attribute it. `name`
  // names the span ("core.find", "posix.open", ...). Returns fn's Status/Result; a
  // non-ok one is a counted failure.
  template <class F>
  auto Op(Kind kind, const char* name, F&& fn) {
    const bool traced = tracing();
    OpStart start = Begin(traced);
    auto result = [&] {
      Span span(ledger(), name);
      return fn();
    }();
    bool ok = result.ok();
    if (ok && PlantErrorHere(kind)) {
      result = decltype(result)(hfad::Status::IoError("planted error"));
      ok = false;
    }
    End(kind, name, start, traced, ok);
    return result;
  }

  // Brackets a model check so its time is not charged to the client's throughput.
  class CheckScope {
   public:
    explicit CheckScope(Client* c) : c_(c), start_(NowNs()) {}
    ~CheckScope() { c_->check_ns_ += NowNs() - start_; }

   private:
    Client* c_;
    uint64_t start_;
  };

  Rng& rng() { return rng_; }
  int id() const { return id_; }
  // Record the PlanStats of one successful Find returning `results` ids.
  void AddPlanStats(const hfad::query::PlanStats& ps, size_t results);
  // True while the current round is traced.
  bool tracing() const;

 private:
  friend class Run;
  struct OpStart {
    uint64_t t0 = 0;
    hfad::stats::Snapshot counters;
    uint64_t core_ns = 0, core_calls = 0;
  };
  OpStart Begin(bool traced);
  void End(Kind kind, const char* name, const OpStart& start, bool traced, bool ok);
  bool PlantErrorHere(Kind kind);
  Ledger* ledger() const;

  Run* const run_;
  const int id_;
  Rng rng_;
  std::array<std::vector<uint64_t>, kNumKinds> lat_ns_;
  uint64_t attempted_ = 0, failed_ = 0;
  uint64_t check_ns_ = 0;
  Attribution attribution_;
};

// Shared run state: the device, the FileSystem under test, accounting and results.
class Run {
 public:
  static constexpr uint64_t kDeviceBytes = 1ull << 30;

  explicit Run(const Args& args);

  const Args& args() const { return args_; }
  Ledger* ledger() { return &ledger_; }
  BenchDevice* device() { return device_.get(); }
  hfad::core::FileSystem* fs() { return fs_.get(); }

  // A device that reads as new + a freshly formatted FileSystem on default options.
  hfad::Status Format();
  // Reopen the current device (after Close or a crash); returns Open's wall time in s.
  hfad::Status Open(double* seconds);
  // Clean close; returns the destructor's wall time in s.
  double Close();
  // Crash: discard unflushed device writes, drop the FileSystem without letting it
  // write, then make the device writable again for recovery.
  void Crash();
  // Drop the FileSystem and the device, freeing the device's memory.
  void Release() {
    fs_.reset();
    device_.reset();
  }

  // A call outside any client (drain, probes): count it as attempted, failed if !ok.
  bool Count(bool ok, const char* what = nullptr, const hfad::Status* s = nullptr);
  // A successful call answered wrongly: fails the run.
  void Wrong(const std::string& what);
  bool correct() const { return !incorrect_.load(); }
  // The self-test's planted wrong answer: true exactly once when planting "wrong".
  bool PlantWrongHere();

  // Merge a client's samples and counts: into the untraced (0) or traced (1) sample
  // set, or only its counts (-1, for untimed ops). Returns the client's successful ops
  // per second of its own time outside model checks.
  double Absorb(Client* c, int sample_set, double wall_s);
  // Forget the counts so far (set-up repeats count only the kept library's calls).
  void ResetCounts() { SetCounts(0, 0); }
  void SetCounts(uint64_t attempted, uint64_t failed) { attempted_ = attempted, failed_ = failed; }

  // Results.
  void SetMetric(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  // Latency samples (ns) of the current untraced round, by op class.
  std::array<std::vector<uint64_t>, kNumKinds> lat_ns;
  // Per round: each latency percentile (us) by name, and the sample counts by class.
  std::map<std::string, std::vector<double>> round_latency_us;
  std::map<std::string, uint64_t> latency_samples;
  // Per round: the sum over clients of successful ops per busy second.
  std::array<std::vector<double>, 2> round_rates;
  Attribution attribution;  // Traced rounds only.

  // Run-wide tallies the workloads feed.
  std::atomic<uint64_t> index_content_acked{0};
  std::atomic<uint64_t> user_bytes_written{0};

  std::atomic<int> plant_error_left{0};
  std::atomic<int> plant_wrong_left{0};
  std::atomic<int> planted_errors{0};
  std::atomic<int> planted_wrong{0};

 private:
  Args args_;
  Ledger ledger_;
  std::shared_ptr<BenchDevice> device_;
  std::unique_ptr<hfad::core::FileSystem> fs_;
  std::atomic<uint64_t> attempted_{0}, failed_{0};
  std::atomic<bool> incorrect_{false};
  std::mutex mu_;  // Guards metrics_, first_wrong_, and the sample merges.
  std::string first_wrong_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// Percentile (q in [0,1]) of `v` by nearest rank; sorts v. 0 when empty.
double Percentile(std::vector<uint64_t>* v, double q);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
