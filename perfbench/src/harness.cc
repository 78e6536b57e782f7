#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using hfad::Status;
using hfad::core::FileSystem;
namespace stats = hfad::stats;
namespace metrics = hfad::metrics;

// ------------------------------------------------------------------ inputs

Rng::Rng(uint64_t seed) {
  uint64_t z = seed;
  for (uint64_t& w : s_) {
    z += 0x9e3779b97f4a7c15ull;
    uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    w = x ^ (x >> 31);
  }
}

uint64_t Rng::Next() {
  auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Double();
  size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

// ------------------------------------------------------------------ clients

void Attribution::Merge(const Attribution& o) {
  for (int k = 0; k < kNumKinds; k++) {
    for (int c = 0; c < stats::kNumCounters; c++) {
      counters[k][c] += o.counters[k][c];
    }
    ops[k] += o.ops[k];
  }
  posix_ops += o.posix_ops;
  posix_ns += o.posix_ns;
  posix_core_ns += o.posix_core_ns;
  posix_core_calls += o.posix_core_calls;
  finds += o.finds;
  find_results += o.find_results;
  rows_scanned += o.rows_scanned;
  probes += o.probes;
}

Client::Client(Run* run, int id, uint64_t seed) : run_(run), id_(id), rng_(seed) {}

bool Client::tracing() const { return run_->ledger()->recording(); }
Ledger* Client::ledger() const { return run_->ledger(); }

namespace {

// Core histogram totals, read straight from the histogram registry's atomics: a full
// HistSnapshot per op would copy every bucket of every histogram.
void CoreHistTotals(uint64_t* ns, uint64_t* calls) {
  *ns = 0;
  *calls = 0;
  for (metrics::Hist h : kCoreHists) {
    const auto& d = metrics::internal::g_hists[static_cast<int>(h)];
    *ns += d.sum.load(std::memory_order_relaxed);
    *calls += d.count.load(std::memory_order_relaxed);
  }
}

}  // namespace

Client::OpStart Client::Begin(bool traced) {
  OpStart s;
  if (traced) {
    s.counters = stats::Snapshot::Take();
    CoreHistTotals(&s.core_ns, &s.core_calls);
  }
  s.t0 = NowNs();
  return s;
}

void Client::End(Kind kind, const char* name, const OpStart& start, bool traced, bool ok) {
  const uint64_t ns = NowNs() - start.t0;
  lat_ns_[static_cast<int>(kind)].push_back(ns);
  attempted_++;
  if (!ok) {
    failed_++;
  }
  if (!traced) {
    return;
  }
  const stats::Snapshot delta = stats::Snapshot::Take().Delta(start.counters);
  auto& acc = attribution_.counters[static_cast<int>(kind)];
  for (int c = 0; c < stats::kNumCounters; c++) {
    acc[c] += delta.values[c];
  }
  attribution_.ops[static_cast<int>(kind)]++;
  if (name[0] == 'p') {  // "posix.*"
    uint64_t core_ns = 0, core_calls = 0;
    CoreHistTotals(&core_ns, &core_calls);
    attribution_.posix_ops++;
    attribution_.posix_ns += ns;
    attribution_.posix_core_ns += core_ns - start.core_ns;
    attribution_.posix_core_calls += core_calls - start.core_calls;
  }
}

void Client::AddPlanStats(const hfad::query::PlanStats& ps, size_t results) {
  attribution_.finds++;
  attribution_.find_results += results;
  attribution_.rows_scanned += ps.rows_scanned;
  attribution_.probes += ps.membership_probes;
}

bool Client::PlantErrorHere(Kind kind) {
  if (kind != Kind::kAccess || run_->plant_error_left.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  if (run_->plant_error_left.fetch_sub(1) != 1) {
    return false;
  }
  run_->planted_errors++;
  return true;
}

// ------------------------------------------------------------------ run

Run::Run(const Args& args) : args_(args) {
  if (args.plant == "error") {
    plant_error_left = 1;
  } else if (args.plant == "wrong") {
    plant_wrong_left = 1;
  }
}

Status Run::Format() {
  fs_.reset();
  if (device_ == nullptr) {
    device_ = std::make_shared<BenchDevice>(kDeviceBytes, &ledger_);
  } else {
    device_->Erase();
  }
  auto fs = FileSystem::Create(device_);
  if (!fs.ok()) {
    return fs.status();
  }
  fs_ = std::move(fs).value();
  return Status::Ok();
}

Status Run::Open(double* seconds) {
  const uint64_t t0 = NowNs();
  auto fs = FileSystem::Open(device_);
  *seconds = (NowNs() - t0) / 1e9;
  if (!fs.ok()) {
    return fs.status();
  }
  fs_ = std::move(fs).value();
  return Status::Ok();
}

double Run::Close() {
  const uint64_t t0 = NowNs();
  fs_.reset();
  return (NowNs() - t0) / 1e9;
}

void Run::Crash() {
  device_->Crash();
  fs_.reset();
  device_->Revive();
}

bool Run::Count(bool ok, const char* what, const Status* s) {
  attempted_++;
  if (!ok) {
    failed_++;
    if (what != nullptr && failed_.load() <= 3) {
      std::fprintf(stderr, "counted failure: %s%s%s\n", what, s != nullptr ? ": " : "",
                   s != nullptr ? s->ToString().c_str() : "");
    }
  }
  return ok;
}

void Run::Wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!incorrect_.exchange(true)) {
    first_wrong_ = what;
    std::fprintf(stderr, "INCORRECT OUTPUT: %s\n", what.c_str());
  }
}

bool Run::PlantWrongHere() {
  if (plant_wrong_left.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  if (plant_wrong_left.fetch_sub(1) != 1) {
    return false;
  }
  planted_wrong++;
  return true;
}

double Run::Absorb(Client* c, int sample_set, double wall_s) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ok = c->attempted_ - c->failed_;
  const double busy_s = wall_s - c->check_ns_ / 1e9;
  const double rate = busy_s > 0 ? ok / busy_s : 0;
  if (sample_set == 0) {
    for (int k = 0; k < kNumKinds; k++) {
      lat_ns[k].insert(lat_ns[k].end(), c->lat_ns_[k].begin(), c->lat_ns_[k].end());
    }
  } else if (sample_set == 1) {
    attribution.Merge(c->attribution_);
  }
  for (auto& v : c->lat_ns_) {
    v.clear();
  }
  attempted_ += c->attempted_;
  failed_ += c->failed_;
  c->attempted_ = c->failed_ = c->check_ns_ = 0;
  c->attribution_ = Attribution();
  return rate;
}

void Run::SetMetric(const std::string& name, double value, const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = {value, unit};
}

double Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return static_cast<double>((*v)[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
