// The workload interface main.cc runs, plus the document text every workload shares.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

class Workload {
 public:
  explicit Workload(Run* run) : run_(run) {}
  virtual ~Workload() = default;

  // Closed-loop client threads.
  virtual int clients() const = 0;
  // Build the starting library on the freshly formatted run->fs(). Called again for
  // each set-up repeat; must reset the model.
  virtual hfad::Status Setup(uint64_t seed) = 0;
  // One client's closed loop until `deadline_ns` or `max_ops` attempted ops.
  virtual void Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) = 0;
  // After a drain (WaitForIndexing + Sync) that succeeded or not.
  virtual void AfterDrain(bool drained) { (void)drained; }
  // Re-attach to run->fs() after a reopen (the POSIX veneer re-mounts).
  virtual hfad::Status Remount() { return hfad::Status::Ok(); }
  // After a reopen (crash or clean): every synced item must be there. Missing items
  // are counted failures; wrong answers from successful calls are incorrect output.
  // With `lost` (the volume did not open) every item is counted missing unprobed.
  virtual void Probe(bool lost) = 0;
  // Bytes of user data live in the model (space_amp's base).
  virtual uint64_t LiveUserBytes() const = 0;
  // One line on the library's size, for the report.
  virtual std::string Describe() const = 0;

 protected:
  Run* const run_;
};

std::unique_ptr<Workload> MakeDesktopSearch(Run* run);
std::unique_ptr<Workload> MakeIngestDurable(Run* run);
std::unique_ptr<Workload> MakePosixTree(Run* run);

// Document text: words "w<id>" drawn from a Zipf vocabulary plus one term unique to the
// document, "k<serial>", so a probe can ask for exactly that document.
constexpr size_t kVocabulary = 20000;
std::string Word(uint32_t id);
std::string UniqueTerm(uint64_t serial);
// A body of about `target_bytes`; fills `words` with the sorted, distinct vocabulary
// ids it contains (the unique term excluded).
std::string MakeBody(Rng* rng, const Zipf& vocab, size_t target_bytes, uint64_t serial,
                     std::vector<uint32_t>* words);

// Texts generated once from the seed, so the timed loops draw their inputs instead of
// spending client time generating them. Sizes are log-uniform over [min, max] bytes,
// stratified; the pool is in random order.
class TextPool {
 public:
  void Fill(Rng* rng, size_t count, size_t min_bytes, size_t max_bytes);
  const std::string& Pick(Rng* rng) const { return texts_[rng->Uniform(texts_.size())]; }
  // The pool in order, cycling: a set-up that takes texts 0, 1, 2, ... uses every
  // size slice evenly.
  const std::string& At(size_t i) const { return texts_[i % texts_.size()]; }

 private:
  std::vector<std::string> texts_;
};

// Fold the outcome of one model check into the run: `ok` false is incorrect output.
inline void Expect(Run* run, bool ok, const std::string& what) {
  if (!ok) {
    run->Wrong(what);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
