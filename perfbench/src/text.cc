#include <algorithm>
#include <cmath>

#include "perfbench/src/workload.h"

namespace perfbench {

std::string Word(uint32_t id) { return "w" + std::to_string(id); }

std::string UniqueTerm(uint64_t serial) { return "k" + std::to_string(serial); }

namespace {

void AppendWords(Rng* rng, const Zipf& vocab, size_t target_bytes, std::string* body,
                 std::vector<uint32_t>* words) {
  while (body->size() < target_bytes) {
    const uint32_t w = static_cast<uint32_t>(vocab.Sample(rng));
    *body += rng->Chance(0.1) ? ". " : " ";
    *body += Word(w);
    words->push_back(w);
  }
}

}  // namespace

std::string MakeBody(Rng* rng, const Zipf& vocab, size_t target_bytes, uint64_t serial,
                     std::vector<uint32_t>* words) {
  std::string body = UniqueTerm(serial);
  words->clear();
  AppendWords(rng, vocab, target_bytes, &body, words);
  std::sort(words->begin(), words->end());
  words->erase(std::unique(words->begin(), words->end()), words->end());
  return body;
}

void TextPool::Fill(Rng* rng, size_t count, size_t min_bytes, size_t max_bytes) {
  const Zipf vocab(kVocabulary, 1.0);
  const double range = static_cast<double>(max_bytes) / static_cast<double>(min_bytes);
  std::vector<uint32_t> words;
  texts_.clear();
  for (size_t i = 0; i < count; i++) {
    std::string text;
    words.clear();
    // Stratified: text i takes its size from the i-th of `count` equal slices of the
    // distribution, so the pool's size mix, and the space it takes, barely moves with
    // the seed.
    const double u = (static_cast<double>(i) + rng->Double()) / static_cast<double>(count);
    const size_t bytes =
        static_cast<size_t>(static_cast<double>(min_bytes) * std::pow(range, u));
    AppendWords(rng, vocab, bytes, &text, &words);
    texts_.push_back(std::move(text));
  }
  for (size_t i = texts_.size(); i > 1; i--) {
    std::swap(texts_[i - 1], texts_[rng->Uniform(i)]);
  }
}

}  // namespace perfbench
