// hfad_perfbench: the end-to-end benchmark on default FileSystemOptions and a 1 GiB RAM
// device.
//
//   hfad_perfbench --workload <desktop_search|ingest_durable|posix_tree> --seed <n>
//                  --seconds <s> --trace <0|1> [--durability 0|1]
//                  [--plant wrong|error] [--spans <file>]
//
// A run: set up the workload's library at least three times, and until the set-ups
// have taken a second (set-up time is their median; the last library is kept), warm
// up untimed, run the timed phase as six rounds of closed-loop clients each followed
// by a drain (WaitForIndexing + Sync), and close the volume. With --trace 1 the odd
// rounds are traced: spans around every call into posix/core and the device, and
// counter snapshots at the same boundaries; the even rounds stay untraced so the run
// can state its own overhead.
//
// --durability 1 adds the durability phase after the timed phase: five crash/recover
// cycles (each after a short untimed burst of the workload) and five clean close/reopen
// cycles, with the durability probes after every reopen. Items they find lost are
// counted failures. The cycles run in a child process, so a fatal signal in recovery
// becomes a counted failure too. The phase is off by default because, at the seed
// commit, its failures depend on the library size and on timing (README.md, known
// defects), and a default run is meant to attempt only ops that succeed.
//
// The last line of stdout is one JSON object: correct, attempted, failed and the metrics
// (end-to-end ones untraced, per-layer ones traced).
#include <execinfo.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "perfbench/src/workload.h"
#include "src/io/io_engine.h"

namespace perfbench {
namespace {

using hfad::Status;
namespace stats = hfad::stats;
namespace metrics = hfad::metrics;

// Set-up repeats: a set-up of tens of ms is repeated until the set-ups total
// kSetupBudgetS, so its median rests on enough samples.
constexpr int kSetupRepeatsMin = 3;
constexpr int kSetupRepeatsMax = 15;
constexpr double kSetupBudgetS = 1.0;
constexpr int kRounds = 6;
constexpr int kReopenRepeats = 5;
constexpr uint64_t kBurstOps = 200;
constexpr double kWarmupShare = 0.2;  // Untimed warm-up, as a share of --seconds.

// A fatal signal inside the program (seen at the seed commit: a segfault during journal
// replay in FileSystem::Open) leaves its stack on stderr before the process dies.
void OnFatalSignal(int sig) {
  static const char kMsg[] = "hfad_perfbench: fatal signal, stack:\n";
  void* frames[64];
  const int n = backtrace(frames, 64);
  (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  backtrace_symbols_fd(frames, n, STDERR_FILENO);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "hfad_perfbench: %s\n", msg.c_str());
  std::exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (flag == "--durability") {
      a.durability = v == "1";
    } else if (flag == "--plant") {
      a.plant = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_trace || !(a.seconds > 0) ||
      (!a.plant.empty() && a.plant != "wrong" && a.plant != "error")) {
    Die("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--durability 0|1] "
        "[--plant wrong|error]");
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Run* run) {
  if (name == "desktop_search") return MakeDesktopSearch(run);
  if (name == "ingest_durable") return MakeIngestDurable(run);
  if (name == "posix_tree") return MakePosixTree(run);
  Die("unknown workload " + name);
}

// Delta of two histogram snapshots, added into `acc`.
void AddHistDelta(const metrics::HistSnapshot& before, const metrics::HistSnapshot& after,
                  metrics::HistSnapshot* acc) {
  acc->count += after.count - before.count;
  acc->sum += after.sum - before.sum;
  for (int b = 0; b < metrics::kNumBuckets; b++) {
    acc->buckets[b] += after.buckets[b] - before.buckets[b];
    if (after.buckets[b] != before.buckets[b]) {
      acc->max = std::max(acc->max, metrics::BucketLowerBound(b));
    }
  }
}

// Program-wide counters accumulated over the traced rounds (their drains included).
struct Window {
  stats::Snapshot counters;
  metrics::HistSnapshot page_read, journal_commit, checkpoint;
  BenchDevice::Counts device;
  uint64_t io_submitted = 0;
  uint64_t user_bytes = 0;
  uint64_t round_ns = 0;
  uint64_t drain_ns = 0, drain_docs = 0;
  double occupancy_peak = 0;
  uint64_t dirty_peak = 0, queue_peak = 0;
  uint64_t io_max_queue_depth = 0;

  struct Marks {
    stats::Snapshot counters;
    metrics::HistSnapshot page_read, journal_commit, checkpoint;
    BenchDevice::Counts device;
    uint64_t io_submitted = 0, user_bytes = 0;
  };
  static Marks Take(Run* run) {
    Marks m;
    m.counters = stats::Snapshot::Take();
    m.page_read = metrics::HistSnapshot::Take(metrics::Hist::kPageRead);
    m.journal_commit = metrics::HistSnapshot::Take(metrics::Hist::kJournalCommit);
    m.checkpoint = metrics::HistSnapshot::Take(metrics::Hist::kCheckpoint);
    m.device = run->device()->counts();
    hfad::io::IoEngine* eng = run->fs()->volume()->io_engine();
    m.io_submitted = eng != nullptr ? eng->submitted() : 0;
    m.user_bytes = run->user_bytes_written.load();
    return m;
  }
  void Add(const Marks& a, const Marks& b) {
    const stats::Snapshot d = b.counters.Delta(a.counters);
    for (int c = 0; c < stats::kNumCounters; c++) {
      counters.values[c] += d.values[c];
    }
    AddHistDelta(a.page_read, b.page_read, &page_read);
    AddHistDelta(a.journal_commit, b.journal_commit, &journal_commit);
    AddHistDelta(a.checkpoint, b.checkpoint, &checkpoint);
    device.reads += b.device.reads - a.device.reads;
    device.writes += b.device.writes - a.device.writes;
    device.write_bytes += b.device.write_bytes - a.device.write_bytes;
    device.syncs += b.device.syncs - a.device.syncs;
    io_submitted += b.io_submitted - a.io_submitted;
    user_bytes += b.user_bytes - a.user_bytes;
  }
};

// Samples the gauges whose peaks the traced run reports, every millisecond.
class Sampler {
 public:
  Sampler(Run* run, Window* w) : run_(run), w_(w) {
    acked0_ = run->index_content_acked.load();
    indexed0_ = stats::Get(stats::Counter::kFulltextDocsIndexed);
    thread_ = std::thread([this] { Main(); });
  }
  ~Sampler() {
    stop_ = true;
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  void Main() {
    hfad::osd::Osd* vol = run_->fs()->volume();
    while (!stop_) {
      w_->occupancy_peak = std::max(w_->occupancy_peak, vol->journal_occupancy() * 100.0);
      w_->dirty_peak = std::max<uint64_t>(w_->dirty_peak, vol->pager()->dirty_pages());
      // The full-text queue starts empty (each round follows a drain), so its depth is
      // documents acknowledged by IndexContent minus documents indexed since.
      const int64_t depth =
          static_cast<int64_t>(run_->index_content_acked.load() - acked0_) -
          static_cast<int64_t>(stats::Get(stats::Counter::kFulltextDocsIndexed) - indexed0_);
      w_->queue_peak = std::max<uint64_t>(w_->queue_peak, depth > 0 ? depth : 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Run* const run_;
  Window* const w_;
  uint64_t acked0_ = 0, indexed0_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

double Us(double ns) { return ns / 1000.0; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Close an untraced round's latency samples: its percentiles join the per-round lists
// whose medians the run reports, so one disturbed round cannot move the result.
void CloseRoundLatencies(Run* run) {
  auto& lat = run->lat_ns;
  std::vector<uint64_t> all;
  for (const auto& v : lat) {
    all.insert(all.end(), v.begin(), v.end());
  }
  auto add = [&](const std::string& name, std::vector<uint64_t>* v) {
    run->latency_samples[name] += v->size();
    run->round_latency_us[name + "_p50_us"].push_back(Us(Percentile(v, 0.5)));
    run->round_latency_us[name + "_p99_us"].push_back(Us(Percentile(v, 0.99)));
  };
  add("op", &all);
  add("lookup", &lat[static_cast<int>(Kind::kLookup)]);
  add("mutate", &lat[static_cast<int>(Kind::kMutate)]);
  add("sync", &lat[static_cast<int>(Kind::kSync)]);
  for (auto& v : lat) {
    v.clear();
  }
}

// The end-to-end metrics BENCHMARK.json bounds. The others are printed in the summary
// only: on this host they do not repeat run to run (see STEADINESS.md).
constexpr std::array<const char*, 2> kBoundedEndToEnd = {"setup_s", "space_amp"};

void ReportEndToEnd(Run* run, const std::vector<double>& setup_s,
                    const std::vector<double>& drain_s, const std::vector<double>& recover_s,
                    const std::vector<double>& mount_s, const std::vector<double>& close_s,
                    const std::vector<double>& space_amp) {
  std::printf("samples over %zu rounds:", run->round_rates[0].size());
  for (const auto& [name, n] : run->latency_samples) {
    std::printf(" %s %llu", name.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  auto show = [](const std::string& name, const std::vector<double>& v) {
    std::printf("%s:", name.c_str());
    for (double x : v) {
      std::printf(" %.4g", x);
    }
    std::printf("\n");
  };
  std::map<std::string, std::pair<double, const char*>> all;
  show("round ok_ops_per_s", run->round_rates[0]);
  for (const auto& [name, v] : run->round_latency_us) {
    show("round " + name, v);
    all[name] = {Median(v), "us"};
  }
  show("setup_s samples", setup_s);
  show("drain_s samples", drain_s);
  show("space_amp samples", space_amp);
  all["ok_ops_per_s"] = {Median(run->round_rates[0]), "1/s"};
  all["setup_s"] = {Median(setup_s), "s"};
  all["drain_s"] = {Median(drain_s), "s"};
  all["space_amp"] = {Median(space_amp), "ratio"};
  if (run->args().durability) {
    show("recover_s samples", recover_s);
    show("mount_s samples", mount_s);
    show("close_s samples", close_s);
    all["recover_s"] = {Median(recover_s), "s"};
    all["mount_s"] = {Median(mount_s), "s"};
    all["close_s"] = {Median(close_s), "s"};
  }
  for (const auto& [name, vu] : all) {
    const bool bounded = std::find(kBoundedEndToEnd.begin(), kBoundedEndToEnd.end(), name) !=
                         kBoundedEndToEnd.end();
    if (bounded) {
      run->SetMetric(name, vu.first, vu.second);
    } else {
      std::printf("unbounded %s %.6g %s\n", name.c_str(), vu.first, vu.second);
    }
  }
}

void ReportPerLayer(Run* run, const Window& w, const std::vector<double>& drain_s) {
  const Attribution& a = run->attribution;
  const auto spans = run->ledger()->Summarize();
  auto span = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? Ledger::Summary() : it->second;
  };
  auto kind_ops = [&](Kind k) { return static_cast<double>(a.ops[static_cast<int>(k)]); };
  auto kind_counter = [&](Kind k, stats::Counter c) {
    return static_cast<double>(a.counters[static_cast<int>(k)][static_cast<int>(c)]);
  };
  auto all_counter = [&](stats::Counter c) {
    double n = 0;
    for (int k = 0; k < kNumKinds; k++) {
      n += kind_counter(static_cast<Kind>(k), c);
    }
    return n;
  };
  double ops = 0;
  for (int k = 0; k < kNumKinds; k++) {
    ops += kind_ops(static_cast<Kind>(k));
  }
  const double lookups = kind_ops(Kind::kLookup);
  const double mutations = kind_ops(Kind::kMutate);
  const double syncs = kind_ops(Kind::kSync);
  auto phase = [&](stats::Counter c) { return static_cast<double>(w.counters[c]); };

  run->SetMetric("posix.self_us", Us(Ratio(static_cast<double>(a.posix_ns) - a.posix_core_ns, a.posix_ops)), "us");
  run->SetMetric("posix.core_calls_per_op", Ratio(a.posix_core_calls, a.posix_ops), "count");
  for (const char* op : {"find", "search_text", "create", "add_tag", "remove_tag", "batch_commit",
                         "write", "read", "index_content", "sync", "remove", "tags", "stat"}) {
    const Ledger::Summary s = span(std::string("core.") + op);
    run->SetMetric(std::string("core.") + op + "_self_us", Us(Ratio(s.self_ns, s.count)), "us");
    run->SetMetric(std::string("core.") + op + "_calls", s.count, "count");
  }
  run->SetMetric("query.rows_scanned_per_result", Ratio(a.rows_scanned, a.find_results), "ratio");
  run->SetMetric("query.probes_per_find", Ratio(a.probes, a.finds), "count");
  run->SetMetric("index.traversals_per_lookup",
                 Ratio(kind_counter(Kind::kLookup, stats::Counter::kIndexTraversals), lookups), "count");
  run->SetMetric("btree.node_visits_per_lookup",
                 Ratio(kind_counter(Kind::kLookup, stats::Counter::kBtreeNodeVisits), lookups), "count");
  run->SetMetric("locks.acquisitions_per_lookup",
                 Ratio(kind_counter(Kind::kLookup, stats::Counter::kLockAcquisitions), lookups), "count");
  run->SetMetric("locks.contentions_per_op", Ratio(all_counter(stats::Counter::kLockContentions), ops), "count");

  run->SetMetric("fulltext.docs_indexed_per_s", Ratio(w.drain_docs, w.drain_ns / 1e9), "1/s");
  run->SetMetric("fulltext.terms_posted_per_doc",
                 Ratio(phase(stats::Counter::kFulltextTermsPosted), phase(stats::Counter::kFulltextDocsIndexed)),
                 "count");
  run->SetMetric("indexer.queue_depth_peak", w.queue_peak, "count");
  run->SetMetric("drain_s", Median(drain_s), "s");

  const double misses = all_counter(stats::Counter::kPageReads);
  const double hits = all_counter(stats::Counter::kPagerHits);
  run->SetMetric("pager.hit_ratio", Ratio(hits, hits + misses), "ratio");
  run->SetMetric("pager.misses_per_op", Ratio(misses, ops), "count");
  run->SetMetric("pager.miss_p50_us", Us(w.page_read.Percentile(0.5)), "us");
  run->SetMetric("pager.miss_p99_us", Us(w.page_read.Percentile(0.99)), "us");
  run->SetMetric("storage.checksum_verifies_per_miss",
                 Ratio(all_counter(stats::Counter::kChecksumVerifies), misses), "count");
  run->SetMetric("pager.writebacks_per_op", Ratio(phase(stats::Counter::kPageWrites), ops), "count");
  run->SetMetric("pager.dirty_pages_peak", w.dirty_peak, "count");

  run->SetMetric("journal.records_per_mutation", Ratio(phase(stats::Counter::kJournalRecords), mutations), "count");
  run->SetMetric("journal.bytes_per_mutation", Ratio(phase(stats::Counter::kJournalBytes), mutations), "B");
  run->SetMetric("journal.commits_per_sync", Ratio(phase(stats::Counter::kJournalCommits), syncs), "count");
  run->SetMetric("journal.commit_p50_us", Us(w.journal_commit.Percentile(0.5)), "us");
  run->SetMetric("journal.commit_p99_us", Us(w.journal_commit.Percentile(0.99)), "us");
  run->SetMetric("journal.occupancy_pct_peak", w.occupancy_peak, "%");

  const double round_s = w.round_ns / 1e9;
  run->SetMetric("osd.checkpoints", w.checkpoint.count, "count");
  run->SetMetric("osd.checkpoint_p50_ms", w.checkpoint.Percentile(0.5) / 1e6, "ms");
  run->SetMetric("osd.checkpoint_max_ms", w.checkpoint.max / 1e6, "ms");
  run->SetMetric("osd.checkpoint_busy_share", Ratio(w.checkpoint.sum / 1e9, round_s + w.drain_ns / 1e9), "ratio");

  run->SetMetric("io.submitted_per_sync", Ratio(w.io_submitted, syncs), "count");
  run->SetMetric("io.max_queue_depth", w.io_max_queue_depth, "count");

  auto median_us = [](Ledger::Summary s) {
    return Us(Percentile(&s.durations_ns, 0.5));
  };
  run->SetMetric("device.reads_per_op", Ratio(w.device.reads, ops), "count");
  run->SetMetric("device.read_us", median_us(span("device.read")), "us");
  run->SetMetric("device.writes_per_sync", Ratio(w.device.writes, syncs), "count");
  run->SetMetric("device.write_us", median_us(span("device.write")), "us");
  run->SetMetric("device.sync_us", median_us(span("device.sync")), "us");
  run->SetMetric("device.write_bytes_per_user_byte", Ratio(w.device.write_bytes, w.user_bytes), "ratio");

  const double untraced = Median(run->round_rates[0]);
  const double traced = Median(run->round_rates[1]);
  run->SetMetric("trace.overhead_pct", traced > 0 ? (untraced / traced - 1) * 100 : 0, "%");
  run->SetMetric("trace.spans", run->ledger()->span_count(), "count");
}

// Run every client's closed loop on its own thread until `deadline`; returns the wall
// time in ns.
uint64_t RunClients(Workload* wl, const std::vector<std::unique_ptr<Client>>& clients,
                    uint64_t deadline) {
  const uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (const auto& c : clients) {
    threads.emplace_back([wl, deadline, c = c.get()] { wl->Loop(c, deadline, UINT64_MAX); });
  }
  for (auto& t : threads) {
    t.join();
  }
  return NowNs() - t0;
}

// Format a fresh volume and set the library up again without counting its calls.
void Rebuild(Run* run, Workload* wl) {
  const uint64_t attempted = run->attempted(), failed = run->failed();
  Status s = run->Format();
  if (s.ok()) {
    s = wl->Setup(run->args().seed);
  }
  if (!s.ok()) {
    Die("cannot rebuild the library: " + s.ToString());
  }
  run->SetCounts(attempted, failed);
}

// Open the volume again and probe it; returns Open's wall time in s. A volume that does
// not open takes every acknowledged item with it: all are counted lost, and the library
// is rebuilt (uncounted) so the cycles that follow have a volume.
double Reopen(Run* run, Workload* wl, const std::string& when) {
  double seconds = 0;
  Status s = run->Open(&seconds);
  if (s.ok()) {
    s = wl->Remount();
  }
  if (!run->Count(s.ok(), ("Open " + when).c_str(), &s)) {
    wl->Probe(/*lost=*/true);
    Rebuild(run, wl);
  } else {
    wl->Probe(/*lost=*/false);
  }
  return seconds;
}

// An untimed burst of client 0's loop, a drain, and a crash.
void BurstAndCrash(Run* run, Workload* wl, Client* c) {
  wl->Loop(c, UINT64_MAX, kBurstOps);
  run->Absorb(c, -1, 0);
  Status idx = run->fs()->WaitForIndexing();
  Status sync = run->fs()->Sync();
  run->Count(idx.ok(), "WaitForIndexing before crash", &idx);
  run->Count(sync.ok(), "Sync before crash", &sync);
  wl->AfterDrain(idx.ok() && sync.ok());
  run->Crash();
}

// What the durability phase hands back from its child process: the run's counts and
// verdict when it ended, and the timings of its cycles. Plain data, sent as bytes.
struct Durability {
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  int planted_errors = 0, planted_wrong = 0;
  std::array<double, kReopenRepeats> recover_s{}, close_s{}, mount_s{};
  bool reported = false;  // Set by the parent once the child's report arrived.

  // The cycles' timings; none when the child died before reporting.
  std::vector<double> Samples(const std::array<double, kReopenRepeats>& a) const {
    return reported ? std::vector<double>(a.begin(), a.end()) : std::vector<double>();
  }
};

constexpr int kDurabilityTimeoutS = 100;

// Run `cycles` (the crash/recover and close/reopen cycles) in a forked child. Journal
// replay after a crash has been seen to die of a segfault (README.md, known defect 5);
// in this process it would take the run's result with it. A child killed
// by a signal, or still running after kDurabilityTimeoutS, is a counted failure of the
// whole run: every attempt counts as failed, so error_rate reads 1. Must be called with
// no program thread running (after a crash).
void RunDurability(Run* run, const std::function<void()>& cycles, Durability* dur) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) {
    Die("pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    Die("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
    cycles();
    dur->attempted = run->attempted();
    dur->failed = run->failed();
    dur->correct = run->correct();
    dur->planted_errors = run->planted_errors.load();
    dur->planted_wrong = run->planted_wrong.load();
    const char* p = reinterpret_cast<const char*>(dur);
    size_t left = sizeof(*dur);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) {
        _exit(3);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  run->Release();  // The child has its own copy; two would double the memory in use.
  int status = 0;
  const uint64_t deadline = NowNs() + kDurabilityTimeoutS * 1000000000ull;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (NowNs() > deadline) {
      std::fprintf(stderr, "the crash/reopen cycles exceeded %d s; killing them\n",
                   kDurabilityTimeoutS);
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Durability got;
  const bool read_all = read(fds[0], &got, sizeof(got)) == static_cast<ssize_t>(sizeof(got));
  close(fds[0]);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && read_all) {
    *dur = got;
    dur->reported = true;
    run->SetCounts(dur->attempted, dur->failed);
    if (!dur->correct) {
      run->Wrong("a check in the crash/reopen cycles failed (its message is above)");
    }
    run->planted_errors = dur->planted_errors;
    run->planted_wrong = dur->planted_wrong;
    return;
  }
  if (!WIFSIGNALED(status)) {
    Die("the crash/reopen cycles failed (exit status " + std::to_string(status) + ")");
  }
  std::fprintf(stderr,
               "counted failure: the crash/reopen cycles died of signal %d; every attempt of "
               "the run counts as failed\n",
               WTERMSIG(status));
  run->SetCounts(run->attempted(), run->attempted());
}

int Main(int argc, char** argv) {
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, OnFatalSignal);
  }
  const Args args = ParseArgs(argc, argv);
  Run run(args);
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, &run);

  std::vector<double> setup_s;
  double setup_total_s = 0;
  for (int i = 0; i < kSetupRepeatsMax && (i < kSetupRepeatsMin || setup_total_s < kSetupBudgetS);
       i++) {
    run.ResetCounts();
    Status f = run.Format();
    if (!f.ok()) {
      Die("format failed: " + f.ToString());
    }
    const uint64_t t0 = NowNs();
    Status s = wl->Setup(args.seed);
    setup_s.push_back((NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
    if (!s.ok()) {
      Die("set-up failed: " + s.ToString());
    }
  }
  std::printf("workload %s, seed %llu: %s; heap %llu bytes\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), wl->Describe().c_str(),
              static_cast<unsigned long long>(run.fs()->volume()->heap_allocated_bytes()));

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < wl->clients(); i++) {
    clients.push_back(std::make_unique<Client>(&run, i, args.seed * 1000003 + i));
  }
  // Warm the pager cache before timing: the library was just written, so the cache
  // holds its tail, not what the access skew favours.
  RunClients(wl.get(), clients, NowNs() + static_cast<uint64_t>(args.seconds * kWarmupShare * 1e9));
  for (auto& c : clients) {
    run.Absorb(c.get(), -1, 0);
  }

  std::vector<double> drain_s, space_amp;
  Window window;
  for (int r = 0; r < kRounds; r++) {
    const bool traced = args.trace && r % 2 == 1;
    const Window::Marks before = traced ? Window::Take(&run) : Window::Marks();
    std::unique_ptr<Sampler> sampler;
    if (traced) {
      sampler = std::make_unique<Sampler>(&run, &window);
    }
    run.ledger()->SetRecording(traced);
    const uint64_t wall_ns = RunClients(
        wl.get(), clients, NowNs() + static_cast<uint64_t>(args.seconds / kRounds * 1e9));
    run.ledger()->SetRecording(false);
    sampler.reset();
    double rate = 0;
    for (auto& c : clients) {
      rate += run.Absorb(c.get(), traced ? 1 : 0, wall_ns / 1e9);
    }
    run.round_rates[traced ? 1 : 0].push_back(rate);
    if (!traced) {
      CloseRoundLatencies(&run);
    }

    const uint64_t docs0 = stats::Get(stats::Counter::kFulltextDocsIndexed);
    const uint64_t d0 = NowNs();
    Status idx = run.fs()->WaitForIndexing();
    Status sync = run.fs()->Sync();
    const uint64_t drain_ns = NowNs() - d0;
    drain_s.push_back(drain_ns / 1e9);
    run.Count(idx.ok(), "drain WaitForIndexing", &idx);
    run.Count(sync.ok(), "drain Sync", &sync);
    if (traced) {
      window.round_ns += wall_ns;
      window.drain_ns += drain_ns;
      window.drain_docs += stats::Get(stats::Counter::kFulltextDocsIndexed) - docs0;
      window.Add(before, Window::Take(&run));
      hfad::io::IoEngine* eng = run.fs()->volume()->io_engine();
      window.io_max_queue_depth = eng != nullptr ? eng->max_queue_depth() : 0;
    }
    wl->AfterDrain(idx.ok() && sync.ok());
    space_amp.push_back(Ratio(run.fs()->volume()->heap_allocated_bytes(), wl->LiveUserBytes()));
  }

  // The durability phase: crash/recover cycles, where every synced item must survive a
  // crash that loses unflushed writes, then clean close/reopen cycles. The first crash
  // leaves no program thread running, so the cycles can run in a child process (see
  // RunDurability).
  Durability dur;
  if (args.durability) {
    BurstAndCrash(&run, wl.get(), clients[0].get());
    RunDurability(&run, [&] {
      for (int i = 0; i < kReopenRepeats; i++) {
        if (i > 0) {
          BurstAndCrash(&run, wl.get(), clients[0].get());
        }
        dur.recover_s[i] = Reopen(&run, wl.get(), "after crash");
      }
      for (int i = 0; i < kReopenRepeats; i++) {
        dur.close_s[i] = run.Close();
        dur.mount_s[i] = Reopen(&run, wl.get(), "after close");
      }
      wl.reset();
      run.Close();
    }, &dur);
  }
  wl.reset();
  run.Release();
  const std::vector<double> recover_s = dur.Samples(dur.recover_s);
  const std::vector<double> close_s = dur.Samples(dur.close_s);
  const std::vector<double> mount_s = dur.Samples(dur.mount_s);

  // Every program thread has stopped: the spans can be read.
  if (args.trace) {
    ReportPerLayer(&run, window, drain_s);
  } else {
    ReportEndToEnd(&run, setup_s, drain_s, recover_s, mount_s, close_s, space_amp);
  }
  if (args.trace && !args.spans_path.empty() && !run.ledger()->WriteSpans(args.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n", args.spans_path.c_str());
  }
  if (!args.plant.empty()) {
    std::printf("planted: %d error status counted, %d wrong answer planted\n",
                run.planted_errors.load(), run.planted_wrong.load());
  }
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              Ratio(run.failed(), run.attempted()),
              static_cast<unsigned long long>(run.failed()),
              static_cast<unsigned long long>(run.attempted()));

  std::string out = "{\"correct\": ";
  out += run.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted());
  out += ", \"failed\": " + std::to_string(run.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : run.metrics()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", vu.first);
    out += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
