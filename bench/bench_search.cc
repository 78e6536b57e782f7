// C4 (§1, §2.1): users find data by describing what they want, not where it lives.
//
// Measures full-text query latency and ranking cost vs corpus size, conjunction
// selectivity effects, and the ingest-side cost of eager vs lazy (§3.4 background)
// indexing.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/common/random.h"
#include "src/fulltext/fulltext.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/pager.h"

namespace {

using hfad::BuddyAllocator;
using hfad::MemoryBlockDevice;
using hfad::Pager;
using hfad::Random;
using hfad::kPageSize;
namespace ft = hfad::fulltext;

constexpr uint64_t kHeap = 1ull << 30;

// A synthetic document: Zipf-ish vocabulary plus designated marker terms.
std::string MakeDoc(Random* rng, int vocab, int words, const std::string& extra) {
  std::string doc = extra;
  for (int w = 0; w < words; w++) {
    doc += " word" + std::to_string(rng->Skewed(20) % vocab);
  }
  return doc;
}

struct Corpus {
  explicit Corpus(int docs)
      : dev(kPageSize + kHeap),
        pager(&dev, 16384),
        alloc(kPageSize, kHeap),
        tree(&pager, &alloc, 0),
        index(&tree) {
    Random rng(99);
    for (int d = 1; d <= docs; d++) {
      std::string extra;
      if (d % 10 == 0) {
        extra += " commonmarker";
      }
      if (d % 100 == 0) {
        extra += " raremarker";
      }
      (void)index.IndexDocument(d, MakeDoc(&rng, 500, 40, extra));
    }
  }

  MemoryBlockDevice dev;
  Pager pager;
  BuddyAllocator alloc;
  hfad::btree::BTree tree;
  ft::FullTextIndex index;
};

void BM_SingleTermQuery(benchmark::State& state) {
  Corpus corpus(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto hits = corpus.index.Search({"commonmarker"});
    benchmark::DoNotOptimize(hits.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " docs");
}
BENCHMARK(BM_SingleTermQuery)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_ConjunctionQuery(benchmark::State& state) {
  Corpus corpus(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // Selective conjunction: 10% of docs carry commonmarker, 1% raremarker.
    auto hits = corpus.index.Search({"commonmarker", "raremarker"});
    benchmark::DoNotOptimize(hits.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " docs");
}
BENCHMARK(BM_ConjunctionQuery)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_RankedTopK(benchmark::State& state) {
  Corpus corpus(10000);
  for (auto _ : state) {
    auto hits = corpus.index.Search({"commonmarker"}, 10);
    benchmark::DoNotOptimize(hits.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("top-10 of ~1000 matches, BM25");
}
BENCHMARK(BM_RankedTopK)->Unit(benchmark::kMicrosecond);

void BM_PhraseQuery(benchmark::State& state) {
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 16384);
  BuddyAllocator alloc(kPageSize, kHeap);
  hfad::btree::BTree tree(&pager, &alloc, 0);
  ft::FullTextIndex index(&tree);
  Random rng(5);
  for (int d = 1; d <= 5000; d++) {
    std::string doc = MakeDoc(&rng, 300, 30, "");
    if (d % 20 == 0) {
      doc += " object based storage device";
    }
    (void)index.IndexDocument(d, doc);
  }
  for (auto _ : state) {
    auto hits = index.SearchPhrase({"object", "based", "storage", "device"});
    benchmark::DoNotOptimize(hits.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhraseQuery)->Unit(benchmark::kMicrosecond);

// Ingest cost, eager: caller pays indexing inline.
void BM_IngestEager(benchmark::State& state) {
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 16384);
  BuddyAllocator alloc(kPageSize, kHeap);
  hfad::btree::BTree tree(&pager, &alloc, 0);
  ft::FullTextIndex index(&tree);
  Random rng(7);
  uint64_t d = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string doc = MakeDoc(&rng, 500, 40, "");
    state.ResumeTiming();
    (void)index.IndexDocument(++d, doc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IngestEager);

// Ingest cost, lazy: caller only enqueues; §3.4's background threads do the indexing.
// items/s here is the *submission* rate the foreground thread observes.
void BM_IngestLazySubmit(benchmark::State& state) {
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 16384);
  BuddyAllocator alloc(kPageSize, kHeap);
  hfad::btree::BTree tree(&pager, &alloc, 0);
  ft::FullTextIndex index(&tree);
  ft::LazyIndexer lazy([&index](const ft::DocumentBatch& batch) {
    return index.IndexDocuments(batch);
  }, static_cast<int>(state.range(0)));
  Random rng(7);
  uint64_t d = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string doc = MakeDoc(&rng, 500, 40, "");
    state.ResumeTiming();
    lazy.Submit(++d, std::move(doc));
  }
  lazy.Drain();  // Outside the timed region: the cost lazy indexing hides.
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " worker(s)");
}
BENCHMARK(BM_IngestLazySubmit)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
