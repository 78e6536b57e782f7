// Tests for the tokenizer, inverted index, BM25 ranking, batched indexing, and lazy
// background indexing.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/btree/btree.h"
#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/core/fsck.h"
#include "src/fulltext/fulltext.h"
#include "src/fulltext/tokenizer.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/pager.h"

namespace hfad {
namespace fulltext {
namespace {

constexpr uint64_t kHeap = 128 * 1024 * 1024;

// ---------------------------------------------------------------- tokenizer

TEST(TokenizerTest, SplitsAndLowercases) {
  auto tokens = Tokenize("Hello, World! FOO-bar");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].term, "hello");
  EXPECT_EQ(tokens[1].term, "world");
  EXPECT_EQ(tokens[2].term, "foo");
  EXPECT_EQ(tokens[3].term, "bar");
}

TEST(TokenizerTest, PositionsAreOrdinal) {
  auto tokens = Tokenize("alpha beta gamma");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 1u);
  EXPECT_EQ(tokens[2].position, 2u);
}

TEST(TokenizerTest, StopwordsDroppedButConsumePositions) {
  auto tokens = Tokenize("war and peace");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].term, "war");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].term, "peace");
  EXPECT_EQ(tokens[1].position, 2u);  // "and" consumed position 1.
}

TEST(TokenizerTest, NumbersAreTerms) {
  auto tokens = Tokenize("error 404 not found");
  // "not" is a stopword.
  std::vector<std::string> terms;
  for (const auto& t : tokens) {
    terms.push_back(t.term);
  }
  EXPECT_EQ(terms, (std::vector<std::string>{"error", "404", "found"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... !!! ???").empty());
}

TEST(TokenizerTest, LongTermsTruncated) {
  std::string giant(200, 'x');
  auto tokens = Tokenize(giant);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].term.size(), 64u);
}

TEST(TokenizerTest, NormalizeTermMatchesTokenizer) {
  EXPECT_EQ(NormalizeTerm("Hello!"), "hello");
  EXPECT_EQ(NormalizeTerm("C++"), "c");
  EXPECT_EQ(NormalizeTerm("..."), "");
}

// ---------------------------------------------------------------- index fixture

class FullTextTest : public ::testing::Test {
 protected:
  FullTextTest()
      : dev_(kPageSize + kHeap),
        pager_(&dev_, 4096),
        alloc_(kPageSize, kHeap),
        tree_(&pager_, &alloc_, 0),
        index_(&tree_) {}

  std::vector<uint64_t> Ids(const std::vector<SearchHit>& hits) {
    std::vector<uint64_t> ids;
    for (const auto& h : hits) {
      ids.push_back(h.docid);
    }
    return ids;
  }

  MemoryBlockDevice dev_;
  Pager pager_;
  BuddyAllocator alloc_;
  btree::BTree tree_;
  FullTextIndex index_;
};

TEST_F(FullTextTest, EmptyIndexFindsNothing) {
  auto r = index_.Search({"anything"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(*index_.doc_count(), 0u);
}

TEST_F(FullTextTest, SingleTermSearch) {
  ASSERT_TRUE(index_.IndexDocument(1, "the quick brown fox").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "the lazy dog").ok());
  auto r = index_.Search({"fox"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
  EXPECT_EQ(*index_.doc_count(), 2u);
}

TEST_F(FullTextTest, ConjunctionSemantics) {
  ASSERT_TRUE(index_.IndexDocument(1, "apples and oranges").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "apples and bananas").ok());
  ASSERT_TRUE(index_.IndexDocument(3, "oranges and bananas").ok());
  auto r = index_.Search({"apples", "bananas"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{2}));
  // A term nobody has makes the conjunction empty.
  auto r2 = index_.Search({"apples", "kiwi"});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST_F(FullTextTest, SearchIsCaseInsensitive) {
  ASSERT_TRUE(index_.IndexDocument(1, "Camera RAW Photo").ok());
  auto r = index_.Search({"CAMERA", "photo"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
}

TEST_F(FullTextTest, StopwordQueryRejected) {
  ASSERT_TRUE(index_.IndexDocument(1, "something here").ok());
  EXPECT_FALSE(index_.Search({"the"}).ok());
  EXPECT_FALSE(index_.Search({""}).ok());
  EXPECT_FALSE(index_.Search({}).ok());
}

TEST_F(FullTextTest, Bm25RanksRarerAndDenserTermsHigher) {
  // doc 1 mentions "zebra" three times in a short doc; doc 2 once in a long doc.
  ASSERT_TRUE(index_.IndexDocument(1, "zebra zebra zebra stripes").ok());
  std::string long_doc = "zebra";
  for (int i = 0; i < 200; i++) {
    long_doc += " filler" + std::to_string(i);
  }
  ASSERT_TRUE(index_.IndexDocument(2, long_doc).ok());
  auto r = index_.Search({"zebra"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].docid, 1u);
  EXPECT_GT((*r)[0].score, (*r)[1].score);
}

TEST_F(FullTextTest, ReindexReplacesOldContent) {
  ASSERT_TRUE(index_.IndexDocument(1, "original content alpha").ok());
  ASSERT_TRUE(index_.IndexDocument(1, "replacement content beta").ok());
  auto old_term = index_.Search({"alpha"});
  ASSERT_TRUE(old_term.ok());
  EXPECT_TRUE(old_term->empty());
  auto new_term = index_.Search({"beta"});
  ASSERT_TRUE(new_term.ok());
  EXPECT_EQ(Ids(*new_term), (std::vector<uint64_t>{1}));
  EXPECT_EQ(*index_.doc_count(), 1u);
}

TEST_F(FullTextTest, RemoveDocument) {
  ASSERT_TRUE(index_.IndexDocument(1, "shared term unique1").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "shared term unique2").ok());
  ASSERT_TRUE(index_.RemoveDocument(1).ok());
  auto shared = index_.Search({"shared"});
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(Ids(*shared), (std::vector<uint64_t>{2}));
  auto unique = index_.Search({"unique1"});
  ASSERT_TRUE(unique.ok());
  EXPECT_TRUE(unique->empty());
  EXPECT_EQ(*index_.doc_count(), 1u);
  EXPECT_EQ(*index_.DocumentFrequency("shared"), 1u);
  EXPECT_EQ(*index_.DocumentFrequency("unique1"), 0u);
  EXPECT_TRUE(index_.RemoveDocument(1).IsNotFound());
}

TEST_F(FullTextTest, DocumentFrequencyTracksCorpus) {
  for (uint64_t d = 1; d <= 10; d++) {
    std::string text = "common";
    if (d <= 3) {
      text += " rare";
    }
    ASSERT_TRUE(index_.IndexDocument(d, text).ok());
  }
  EXPECT_EQ(*index_.DocumentFrequency("common"), 10u);
  EXPECT_EQ(*index_.DocumentFrequency("rare"), 3u);
  EXPECT_EQ(*index_.DocumentFrequency("absent"), 0u);
}

TEST_F(FullTextTest, PostingsReturnsDocids) {
  ASSERT_TRUE(index_.IndexDocument(7, "needle haystack").ok());
  ASSERT_TRUE(index_.IndexDocument(9, "needle thread").ok());
  auto r = index_.Postings("needle");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<uint64_t>{7, 9}));
}

TEST_F(FullTextTest, LimitCapsResults) {
  for (uint64_t d = 1; d <= 20; d++) {
    ASSERT_TRUE(index_.IndexDocument(d, "popular topic").ok());
  }
  auto r = index_.Search({"popular"}, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST_F(FullTextTest, PhraseSearch) {
  ASSERT_TRUE(index_.IndexDocument(1, "new york city weather").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "york has a new city hall").ok());
  auto r = index_.SearchPhrase({"new", "york"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
  // Phrase with an interior stopword: positions still line up.
  ASSERT_TRUE(index_.IndexDocument(3, "jack and jill went up").ok());
  auto r2 = index_.SearchPhrase({"jack", "and", "jill"});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Ids(*r2), (std::vector<uint64_t>{3}));
}

TEST_F(FullTextTest, PersistsAcrossReopen) {
  ASSERT_TRUE(index_.IndexDocument(1, "durable full text data").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "volatile nonsense").ok());
  uint64_t root = tree_.root();
  ASSERT_TRUE(pager_.Flush().ok());
  ASSERT_TRUE(pager_.DropCacheForTesting().ok());

  btree::BTree tree2(&pager_, &alloc_, root);
  FullTextIndex reopened(&tree2);
  auto r = reopened.Search({"durable"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
  EXPECT_EQ(*reopened.doc_count(), 2u);
}

TEST_F(FullTextTest, LargeCorpusConjunction) {
  Random rng(5);
  std::set<uint64_t> expect;
  for (uint64_t d = 1; d <= 500; d++) {
    std::string text = "filler" + std::to_string(rng.Uniform(50));
    bool has_a = rng.OneIn(3);
    bool has_b = rng.OneIn(3);
    if (has_a) {
      text += " marker alphaterm";
    }
    if (has_b) {
      text += " betaterm trailing";
    }
    if (has_a && has_b) {
      expect.insert(d);
    }
    ASSERT_TRUE(index_.IndexDocument(d, text).ok());
  }
  auto r = index_.Search({"alphaterm", "betaterm"});
  ASSERT_TRUE(r.ok());
  std::vector<uint64_t> ids = Ids(*r);
  std::set<uint64_t> got(ids.begin(), ids.end());
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------- batches

std::vector<std::pair<std::string, std::string>> ScanAll(const btree::BTree& tree) {
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_TRUE(tree.Scan(Slice(), Slice(), [&](Slice k, Slice v) {
                    out.emplace_back(k.ToString(), v.ToString());
                    return true;
                  }).ok());
  return out;
}

void ExpectSameHits(const Result<std::vector<SearchHit>>& a,
                    const Result<std::vector<SearchHit>>& b, const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what;
  if (!a.ok()) {
    return;
  }
  ASSERT_EQ(a->size(), b->size()) << what;
  for (size_t i = 0; i < a->size(); i++) {
    EXPECT_EQ((*a)[i].docid, (*b)[i].docid) << what << " hit " << i;
    EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score) << what << " hit " << i;
  }
}

// One IndexDocuments call must leave exactly the state of the equivalent IndexDocument
// loop: same keys and values, so the same counts, frequencies and query answers. The
// batch repeats a docid, re-indexes an already-indexed document, holds a stopword-only
// document, and is large enough to split the single leaf it starts on.
TEST(FullTextBatchTest, BatchMatchesPerDocumentLoop) {
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 4096);
  BuddyAllocator alloc(kPageSize, kHeap);
  btree::BTree batch_tree(&pager, &alloc, 0);
  btree::BTree loop_tree(&pager, &alloc, 0);
  FullTextIndex batched(&batch_tree);
  FullTextIndex looped(&loop_tree);

  const DocumentBatch base = {{"alpha beta gamma", 1}, {"beta delta", 2},
                              {"gamma epsilon alpha", 3}};
  for (const auto& [text, docid] : base) {
    ASSERT_TRUE(batched.IndexDocument(docid, text).ok());
    ASSERT_TRUE(looped.IndexDocument(docid, text).ok());
  }
  ASSERT_EQ(*batch_tree.Height(), 1);

  constexpr int kVocab = 40;
  Random rng(13);
  DocumentBatch batch;
  batch.emplace_back("delta zeta replaced second version", 2);  // Re-index.
  for (uint64_t d = 100; d < 400; d++) {
    std::string text = "common";
    for (int w = 0; w < 20; w++) {
      text += " w" + std::to_string(rng.Uniform(kVocab));
    }
    batch.emplace_back(std::move(text), d);
  }
  batch.emplace_back("the and of a", 500);                       // Stopwords only.
  batch.emplace_back("repeated final words alpha w3 w7", 150);   // Repeats docid 150.
  batch.emplace_back("beta replaced again", 2);                  // Repeats docid 2.

  ASSERT_TRUE(batched.IndexDocuments(batch).ok());
  for (const auto& [text, docid] : batch) {
    ASSERT_TRUE(looped.IndexDocument(docid, text).ok());
  }
  EXPECT_GE(*batch_tree.Height(), 2);  // The batch split the leaf it started on.
  ASSERT_TRUE(batch_tree.CheckInvariants().ok());

  EXPECT_EQ(ScanAll(batch_tree), ScanAll(loop_tree));
  EXPECT_EQ(*batched.doc_count(), *looped.doc_count());
  EXPECT_EQ(*batched.doc_count(), 3u + 300u + 1u);

  std::vector<std::string> terms = {"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                                    "replaced", "second", "version", "again", "repeated",
                                    "final", "words", "common"};
  for (int w = 0; w < kVocab; w++) {
    terms.push_back("w" + std::to_string(w));
  }
  for (const std::string& term : terms) {
    EXPECT_EQ(*batched.DocumentFrequency(term), *looped.DocumentFrequency(term)) << term;
    ExpectSameHits(batched.Search({term}), looped.Search({term}), term);
  }
  EXPECT_EQ(*batched.DocumentFrequency("second"), 0u);  // Superseded within the batch.
  ExpectSameHits(batched.Search({"common", "w3", "w7"}), looped.Search({"common", "w3", "w7"}),
                 "conjunction");
  ExpectSameHits(batched.SearchPhrase({"repeated", "final", "words"}),
                 looped.SearchPhrase({"repeated", "final", "words"}), "phrase");
  ExpectSameHits(batched.SearchPhrase({"common", "w1"}), looped.SearchPhrase({"common", "w1"}),
                 "leading phrase");
  auto phrase = batched.SearchPhrase({"repeated", "final", "words"});
  ASSERT_TRUE(phrase.ok());
  ASSERT_EQ(phrase->size(), 1u);
  EXPECT_EQ((*phrase)[0].docid, 150u);
}

TEST(FullTextBatchTest, EmptyBatchWritesNothing) {
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 4096);
  BuddyAllocator alloc(kPageSize, kHeap);
  btree::BTree tree(&pager, &alloc, 0);
  FullTextIndex index(&tree);
  ASSERT_TRUE(index.IndexDocuments({}).ok());
  EXPECT_EQ(tree.Count(), 0u);
  EXPECT_EQ(*index.doc_count(), 0u);
}

// ---------------------------------------------------------------- concurrency

// Searches racing a writer that indexes batches must not crash or error; each sees a
// consistent snapshot, and the final answer covers every batch.
TEST_F(FullTextTest, SearchWhileIndexing) {
  std::thread writer([this] {
    for (uint64_t first = 1; first <= 300; first += 30) {
      DocumentBatch batch;
      for (uint64_t d = first; d < first + 30; d++) {
        batch.emplace_back("concurrent searchable corpus doc" + std::to_string(d), d);
      }
      EXPECT_TRUE(index_.IndexDocuments(batch).ok());
    }
  });
  for (int i = 0; i < 20; i++) {
    auto r = index_.Search({"searchable"});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  writer.join();
  auto r = index_.Search({"searchable"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 300u);
}

// The default FileSystem's two indexer workers apply batches under the full-text store's
// exclusive lock while readers run SearchText, another thread removes indexed objects,
// and the writer removes objects whose snapshots are still queued. Run under TSan in CI.
TEST(FullTextStressTest, LazyBatchesRaceSearchTextAndRemove) {
  constexpr int kVictims = 100;
  constexpr int kKeepers = 300;
  auto created = core::FileSystem::Create(
      std::make_shared<MemoryBlockDevice>(64 * 1024 * 1024), core::FileSystemOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::FileSystem* fs = created->get();
  auto make = [fs](const std::string& text) -> Result<uint64_t> {
    HFAD_ASSIGN_OR_RETURN(uint64_t oid, fs->Create());
    HFAD_RETURN_IF_ERROR(fs->Write(oid, 0, text));
    HFAD_RETURN_IF_ERROR(fs->IndexContent(oid));
    return oid;
  };
  std::vector<uint64_t> victims;
  for (int i = 0; i < kVictims; i++) {
    auto oid = make("doomed victim " + std::to_string(i));
    ASSERT_TRUE(oid.ok());
    victims.push_back(*oid);
  }
  ASSERT_TRUE(fs->WaitForIndexing().ok());

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < kKeepers; i++) {
      if (!make("keeper stress doc" + std::to_string(i)).ok()) {
        errors++;
      }
      // A ghost is removed while its snapshot may still be queued or in a batch.
      auto ghost = make("ghost stress doc" + std::to_string(i));
      if (!ghost.ok() || !fs->Remove(*ghost).ok()) {
        errors++;
      }
    }
  });
  std::thread remover([&] {
    for (uint64_t oid : victims) {
      if (!fs->Remove(oid).ok()) {
        errors++;
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; t++) {
    readers.emplace_back([&] {
      while (!done.load()) {
        if (!fs->SearchText({"keeper"}).ok() || !fs->SearchText({"doomed"}).ok()) {
          errors++;
        }
      }
    });
  }
  writer.join();
  remover.join();
  done = true;
  for (auto& r : readers) {
    r.join();
  }
  ASSERT_TRUE(fs->WaitForIndexing().ok());
  EXPECT_EQ(errors.load(), 0);

  auto keepers = fs->SearchText({"keeper"});
  ASSERT_TRUE(keepers.ok());
  EXPECT_EQ(keepers->size(), static_cast<size_t>(kKeepers));
  auto doomed = fs->SearchText({"doomed"});
  ASSERT_TRUE(doomed.ok());
  EXPECT_TRUE(doomed->empty());
  auto ghosts = fs->SearchText({"ghost"});
  ASSERT_TRUE(ghosts.ok());
  EXPECT_TRUE(ghosts->empty());
  auto report = core::CheckFileSystem(fs);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// Property sweep: every indexed doc is findable by each of its distinct terms; removed
// docs never surface. Across corpus shapes.
struct CorpusParam {
  uint64_t seed;
  int docs;
  int vocab;
  int words_per_doc;
  // Explicit, zeroed padding: gtest names each case by the struct's raw bytes, and
  // implicit padding (uninitialised) gave the case a new name on every run.
  char padding[4] = {};
};
static_assert(std::has_unique_object_representations_v<CorpusParam>);

class FullTextPropertyTest : public ::testing::TestWithParam<CorpusParam> {};

TEST_P(FullTextPropertyTest, EveryDocFindableByItsTerms) {
  const CorpusParam p = GetParam();
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 4096);
  BuddyAllocator alloc(kPageSize, kHeap);
  btree::BTree tree(&pager, &alloc, 0);
  FullTextIndex index(&tree);
  Random rng(p.seed);

  std::map<uint64_t, std::set<std::string>> doc_terms;
  for (int d = 1; d <= p.docs; d++) {
    std::string text;
    std::set<std::string> terms;
    for (int w = 0; w < p.words_per_doc; w++) {
      std::string word = "w" + std::to_string(rng.Uniform(p.vocab));
      terms.insert(word);
      text += word + " ";
    }
    ASSERT_TRUE(index.IndexDocument(d, text).ok());
    doc_terms[d] = std::move(terms);
  }
  // Remove a third of the docs.
  std::set<uint64_t> removed;
  for (const auto& [d, terms] : doc_terms) {
    if (d % 3 == 0) {
      ASSERT_TRUE(index.RemoveDocument(d).ok());
      removed.insert(d);
    }
  }
  for (const auto& [d, terms] : doc_terms) {
    for (const std::string& term : terms) {
      auto r = index.Search({term});
      ASSERT_TRUE(r.ok());
      bool found = false;
      for (const auto& hit : *r) {
        ASSERT_EQ(removed.count(hit.docid), 0u) << "removed doc surfaced for " << term;
        if (hit.docid == d) {
          found = true;
        }
      }
      ASSERT_EQ(found, removed.count(d) == 0) << "doc " << d << " term " << term;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, FullTextPropertyTest,
                         ::testing::Values(CorpusParam{1, 60, 30, 8},
                                           CorpusParam{2, 120, 10, 4},
                                           CorpusParam{3, 40, 200, 20},
                                           CorpusParam{4, 200, 50, 12}));

}  // namespace
}  // namespace fulltext
}  // namespace hfad
