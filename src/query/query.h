// The unified naming query core — the paper's §3.1 claim ("all naming is one search
// interface over the same index stores") as an API: a query AST, a cost-based planner,
// and pull-based execution with pagination. Every naming entry point (tag lookup,
// boolean query, ranked search candidates, POSIX directory enumeration) compiles to an
// Expr and executes through QueryPlanner as a tree of seekable posting iterators; the
// paper's open question #3 ("should they include full-fledged query optimizers?") is
// answered with a deliberately bounded design:
//
//   * arbitrary AND / OR / NOT expressions over tag:value terms, with parentheses, plus
//     tag:prefix* terms (a value-prefix match — what directory enumeration compiles to);
//   * a selectivity-based planner that orders conjuncts by ascending estimated
//     cardinality (the index stores' cardinality caches make the estimate O(1) warm):
//     the cheapest conjunct drives a leapfrog intersection, conjuncts that dwarf the
//     driver degrade to per-candidate membership probes, and an empty driver ends the
//     query before the expensive terms are ever opened;
//   * pull execution: plans run as index::PostingIterator trees, so `limit`/`after`
//     pagination (FindOptions) costs O(page), not O(result set);
//   * no cost-based join planning — index stores expose only a cardinality estimate, and
//     the engine stays a thin client above them, which is the paper's layering.
//
// Query syntax:   UDEF:vacation AND USER:margo AND NOT UDEF:work
//                 FULLTEXT:report (FULLTEXT:2009 OR FULLTEXT:2008)
//                 POSIX:/home/margo/* AND UDEF:draft
// Adjacent terms are implicitly conjoined. Values with spaces use double quotes:
// POSIX:"/home/m/my file.txt" (quoting keeps a trailing '*' literal). NOT binds tighter
// than AND, AND tighter than OR. Negation is only meaningful inside a conjunction (NOT x
// alone would name the unbounded complement), so a NOT without positive siblings is
// rejected. Malformed input fails with Status::InvalidArgument carrying the 1-based
// position of the offending token.
#ifndef HFAD_SRC_QUERY_QUERY_H_
#define HFAD_SRC_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/index/index_store.h"
#include "src/index/posting_iterator.h"

namespace hfad {
namespace query {

using index::ObjectId;

// Work counters filled by execution (bench/ablation support); defined next to the
// iterators that fill it.
using PlanStats = index::PlanStats;

// The EXPLAIN plan tree (one node per Expr node); defined next to the conjunction
// planner that annotates it.
using PlanNode = index::PlanNode;

// Structured EXPLAIN for one Find call: the planner's term ordering and probe-
// degradation decisions, per-term estimated vs. actual cardinalities (actuals are
// measured post-execution with extra index reads — EXPLAIN ANALYZE pricing), and
// whole-plan execution stats plus pages-read / index-traversal counter deltas on
// the root. Request one via FindOptions::explain.
struct Explain {
  PlanNode root;
  bool planner_optimized = true;  // False under the ablation (optimize=false) planner.

  // Indented one-line-per-node tree for logs and tests.
  std::string ToString() const;
  // Nested JSON (schema in docs/OBSERVABILITY.md).
  std::string ToJson() const;
};

// Expression tree. Terms carry tag/value (kPrefix: value is a prefix to match); And/Or
// carry children; Not carries exactly one.
struct Expr {
  enum class Kind { kTerm, kPrefix, kAnd, kOr, kNot };

  Kind kind = Kind::kTerm;
  std::string tag;    // kTerm / kPrefix only.
  std::string value;  // kTerm / kPrefix only.
  std::vector<std::unique_ptr<Expr>> children;

  static std::unique_ptr<Expr> Term(std::string tag, std::string value);
  // Matches every object whose `tag` value starts with `value_prefix` (the query-syntax
  // form is an unquoted value ending in '*').
  static std::unique_ptr<Expr> Prefix(std::string tag, std::string value_prefix);
  static std::unique_ptr<Expr> And(std::vector<std::unique_ptr<Expr>> children);
  static std::unique_ptr<Expr> Or(std::vector<std::unique_ptr<Expr>> children);
  static std::unique_ptr<Expr> Not(std::unique_ptr<Expr> child);

  // A conjunction of plain terms — the shape FileSystem::Lookup compiles to.
  static std::unique_ptr<Expr> AndTerms(const std::vector<index::TagValue>& terms);
};

// Parse the query syntax described above. Malformed input (unbalanced parentheses,
// dangling AND/OR/NOT, missing or empty values, nesting deeper than 64) returns
// InvalidArgument with the 1-based character position of the problem.
Result<std::unique_ptr<Expr>> Parse(Slice text);

// Canonical text form (parenthesized), for tests and debugging.
std::string ToString(const Expr& expr);

// Read-visibility contract for one Find call (see docs/API.md). FULLTEXT is indexed in
// the background; every other tag applies inline, so the two modes agree on queries
// that do not touch FULLTEXT.
enum class Visibility {
  // For a query that touches FULLTEXT, wait until the background indexer has applied
  // every content intent enqueued before the call, then execute. Every previously
  // acknowledged IndexContent is visible.
  kStrict,
  // Execute against the postings as they are right now. Acknowledged-but-unapplied
  // content may be missing; no waiting, the ingest-side win of lazy indexing.
  kRelaxed,
};

// Pagination and accounting for one Find/Evaluate call.
struct FindOptions {
  // Maximum ids returned; 0 means unlimited.
  size_t limit = 0;
  // Resume strictly after this oid (pass the previous page's next_after). 0 starts at
  // the beginning. Pages are stable under concurrent mutation in the sense that the
  // sequence of pages never repeats or reorders an oid; objects mutated between pages
  // may appear in neither or exactly one page.
  ObjectId after = 0;
  // Optional work counters, filled during execution.
  PlanStats* stats = nullptr;
  // Full-text visibility under lazy content indexing (see Visibility).
  Visibility visibility = Visibility::kStrict;
  // When set, Find fills a structured EXPLAIN of the executed plan. Costs extra
  // index reads after execution (actual cardinalities); leave null on hot paths.
  Explain* explain = nullptr;
};

// One page of results (ascending oid).
struct FindPage {
  std::vector<ObjectId> ids;
  bool has_more = false;     // More results exist past this page.
  ObjectId next_after = 0;   // Pass as FindOptions::after to continue; set when
                             // has_more (equals ids.back()).
};

// Pull one page out of a planned iterator (SeekTo(after+1), then at most `limit` ids).
Result<FindPage> Paginate(index::PostingIterator* it, const FindOptions& options);

// Compiles expressions into posting-iterator trees. Stateless apart from the two
// configuration members; cheap to construct per query.
class QueryPlanner {
 public:
  // With optimize = false conjuncts run in textual order and never degrade to
  // membership probes (the ablation baseline).
  explicit QueryPlanner(const index::IndexCollection* indexes, bool optimize = true)
      : indexes_(indexes), optimize_(optimize) {}

  // Compile `expr` into an unpositioned iterator (SeekTo before use). The iterator
  // borrows the index collection and `stats`; both must outlive it. With `explain`
  // set, a PlanNode tree mirroring `expr` is built under it and annotated with the
  // planner's estimates, ordering, and probe decisions (the node must outlive the
  // BuildConjunction call, not the iterator).
  Result<std::unique_ptr<index::PostingIterator>> Plan(const Expr& expr,
                                                       PlanStats* stats = nullptr,
                                                       PlanNode* explain = nullptr) const;

  // Cheap upper-bound cardinality estimate used to order conjuncts.
  uint64_t Estimate(const Expr& expr) const;

  // Fill PlanNode::actual for every term/prefix node under `node` by counting the
  // real postings (extra index reads — the EXPLAIN ANALYZE price). `node` must have
  // been built by Plan(expr, ..., explain) for the same expression.
  Status AnalyzeActuals(const Expr& expr, PlanNode* node) const;

 private:
  Result<std::unique_ptr<index::PostingIterator>> PlanAnd(const Expr& expr,
                                                          PlanStats* stats,
                                                          PlanNode* explain) const;

  const index::IndexCollection* const indexes_;
  const bool optimize_;
};

// Parse/evaluate facade over the planner (the legacy boolean-query entry point; results
// fully materialized).
class QueryEngine {
 public:
  explicit QueryEngine(const index::IndexCollection* indexes, bool optimize = true)
      : planner_(indexes, optimize) {}

  // Evaluate an expression; results ascending by oid.
  Result<std::vector<ObjectId>> Evaluate(const Expr& expr, PlanStats* stats = nullptr) const;

  // Parse + evaluate.
  Result<std::vector<ObjectId>> Run(Slice text, PlanStats* stats = nullptr) const;

  const QueryPlanner& planner() const { return planner_; }

 private:
  const QueryPlanner planner_;
};

}  // namespace query
}  // namespace hfad

#endif  // HFAD_SRC_QUERY_QUERY_H_
