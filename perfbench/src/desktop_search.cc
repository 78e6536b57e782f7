// desktop_search: the paper's primary use. A tagged, content-indexed library larger
// than the pager cache, read through conjunctive Find (plain, prefix and NOT terms),
// SearchText, Read, Tags and Stat with Zipf-skewed access; about 5% of ops are
// AddTag/RemoveTag groups, each followed by a Sync.
#include <algorithm>
#include <array>
#include <cctype>
#include <random>
#include <set>
#include <unordered_map>

#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

using hfad::Status;
using hfad::core::ObjectId;
using hfad::index::TagValue;
namespace query = hfad::query;

// Library size rule: heap pages >= 4 x the default pager cache (4096 pages of 4 KiB).
constexpr uint64_t kHeapTargetBytes = 4ull * 4096 * 4096;
constexpr size_t kMaxDocs = 100000;  // Bound on set-up if the heap never gets there.
constexpr int kClients = 2;
constexpr int kLabels = 8;
constexpr size_t kFindLimit = 50;
constexpr size_t kSearchLimit = 20;
const std::array<const char*, 8> kApps = {"mail",  "mailinglist", "photo", "photoraw",
                                          "notes", "notebook",    "music", "calendar"};
const std::array<const char*, 3> kAppPrefixes = {"mail", "photo", "note"};

bool TagLess(const TagValue& a, const TagValue& b) {
  return a.tag != b.tag ? a.tag < b.tag : a.value < b.value;
}
bool TagEq(const TagValue& a, const TagValue& b) { return a.tag == b.tag && a.value == b.value; }
std::string Key(const std::string& tag, const std::string& value) { return tag + ":" + value; }
std::string LabelValue(int client, int k) {
  return "c" + std::to_string(client) + "l" + std::to_string(k);
}

struct Doc {
  ObjectId oid = 0;
  uint64_t serial = 0;
  int owner = 0;               // The client that labels it: its index modulo kClients.
  std::vector<TagValue> tags;  // Set-up names, sorted; changed only by a reopen.
  std::string body;
  std::vector<uint32_t> words;
  bool gone = false;           // Missing after a reopen.
  bool words_stale = false;    // Bytes are not what set-up wrote; `words` is stale.
  bool ft_lost = false;        // Unique term no longer found (counted once).
};

// One query term of the model's evaluator.
struct QTerm {
  enum Kind { kPlain, kPrefix, kLabel, kNot } kind;
  std::string tag, value;
  int label = 0;
};

class DesktopSearch : public Workload {
 public:
  explicit DesktopSearch(Run* run) : Workload(run) {}

  int clients() const override { return kClients; }
  Status Setup(uint64_t seed) override;
  void Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) override;
  void Probe(bool lost) override;
  uint64_t LiveUserBytes() const override { return body_bytes_; }
  std::string Describe() const override {
    return std::to_string(docs_.size()) + " documents, " + std::to_string(body_bytes_) +
           " body bytes";
  }

 private:
  struct Labels {
    std::unordered_map<ObjectId, uint8_t> mask;
    std::array<std::set<ObjectId>, kLabels> docs;
    std::set<ObjectId> unsynced;  // Relabelled since the owner's last successful Sync.
  };

  const Doc& PickDoc(Client* c) {
    const Doc* d = &docs_[popularity_[access_.Sample(&c->rng())]];
    for (int i = 0; d->gone && i < 64; i++) {
      d = &docs_[popularity_[access_.Sample(&c->rng())]];
    }
    return *d;
  }
  // After a reopen: take the program's names for `d` as the model's (the probe has
  // already counted any difference as a lost acknowledged change).
  void AdoptTags(Doc* d, const std::vector<TagValue>& tags);
  bool HasTag(const Doc& d, const std::string& tag, const std::string& value) const;
  bool HasPrefix(const Doc& d, const std::string& tag, const std::string& prefix) const;
  bool Matches(const Doc& d, int client, const QTerm& t) const;
  std::vector<ObjectId> Evaluate(int client, const std::vector<QTerm>& q, size_t limit) const;
  std::vector<TagValue> ExpectedTags(const Doc& d) const;
  // Take the program's answer as the label state of a document whose last label
  // change is not known to be durable (or failed): either outcome is allowed.
  void AdoptLabels(ObjectId oid, int owner, const std::vector<TagValue>& tags);
  void AfterDrain(bool drained) override;

  void DoFind(Client* c);
  void DoSearchText(Client* c);
  void DoRead(Client* c);
  void DoTags(Client* c);
  void DoStat(Client* c);
  void DoMutations(Client* c);

  std::vector<Doc> docs_;
  std::unordered_map<ObjectId, uint32_t> by_oid_;
  std::unordered_map<std::string, std::vector<ObjectId>> tag_index_;
  std::vector<std::vector<ObjectId>> term_index_;
  std::vector<uint32_t> popularity_;  // Zipf rank -> index into docs_.
  Zipf access_{1, 1.0};
  // Every skew is Zipf's law with s = 1, an assumption: no trace fixes it.
  Zipf users_{32, 1.0}, apps_{kApps.size(), 1.0}, topics_{256, 1.0}, months_{24, 1.0};
  std::array<Labels, kClients> labels_;
  uint64_t body_bytes_ = 0;
  // False once full-text postings are known to be missing (after a reopen lost them):
  // SearchText answers are then checked only for soundness, not completeness.
  bool ft_complete_ = true;
};

Status DesktopSearch::Setup(uint64_t seed) {
  docs_.clear();
  by_oid_.clear();
  tag_index_.clear();
  term_index_.assign(kVocabulary, {});
  for (Labels& l : labels_) {
    l = Labels();
  }
  body_bytes_ = 0;
  ft_complete_ = true;
  Rng rng(seed);
  Zipf vocab(kVocabulary, 1.0);
  hfad::core::FileSystem* fs = run_->fs();
  for (uint64_t serial = 0;
       serial < kMaxDocs && fs->volume()->heap_allocated_bytes() < kHeapTargetBytes;
       serial++) {
    Doc d;
    d.serial = serial;
    const uint64_t month = months_.Sample(&rng);
    std::string date = "t" + std::to_string(2009 - month / 12);
    date += (month % 12 < 9 ? "0" : "") + std::to_string(month % 12 + 1);
    date += (rng.Uniform(28) < 9 ? "0" : "1") + std::to_string(rng.Uniform(9) + 1);
    d.tags = {{"USER", "u" + std::to_string(users_.Sample(&rng))},
              {"APP", kApps[apps_.Sample(&rng)]},
              {"UDEF", "topic" + std::to_string(topics_.Sample(&rng))},
              {"UDEF", date}};
    if (rng.Chance(0.5)) {
      d.tags.push_back({"UDEF", "topic" + std::to_string(topics_.Sample(&rng))});
    }
    std::sort(d.tags.begin(), d.tags.end(), TagLess);
    d.tags.erase(std::unique(d.tags.begin(), d.tags.end(), TagEq), d.tags.end());
    d.body = MakeBody(&rng, vocab, rng.Range(300, 1200), serial, &d.words);

    auto oid = fs->Create(d.tags);
    const Status cs = oid.status();
    if (!run_->Count(oid.ok(), "set-up Create", &cs)) {
      continue;
    }
    d.oid = *oid;
    Status w = fs->Write(d.oid, 0, d.body);
    Status ix = w.ok() ? fs->IndexContent(d.oid) : w;
    run_->Count(w.ok(), "set-up Write", &w);
    run_->Count(ix.ok(), "set-up IndexContent", &ix);
    if (!w.ok()) {
      // The object exists with its names; take whatever bytes it holds.
      d.words_stale = true;
      if (!fs->Read(d.oid, 0, d.body.size(), &d.body).ok()) {
        d.body.clear();
      }
    }
    if (!ix.ok()) {
      d.ft_lost = true;
      ft_complete_ = false;
    }
    body_bytes_ += d.body.size();
    d.owner = static_cast<int>(docs_.size() % kClients);
    docs_.push_back(std::move(d));
  }
  Status drained = fs->WaitForIndexing();
  Status synced = fs->Sync();
  run_->Count(drained.ok(), "set-up WaitForIndexing", &drained);
  run_->Count(synced.ok(), "set-up Sync", &synced);
  ft_complete_ = ft_complete_ && drained.ok();

  for (uint32_t i = 0; i < docs_.size(); i++) {
    const Doc& d = docs_[i];
    by_oid_[d.oid] = i;
    for (const TagValue& t : d.tags) {
      tag_index_[Key(t.tag, t.value)].push_back(d.oid);
    }
    for (uint32_t w : d.words) {
      term_index_[w].push_back(d.oid);
    }
  }
  for (auto& [key, oids] : tag_index_) {
    std::sort(oids.begin(), oids.end());
  }
  for (auto& oids : term_index_) {
    std::sort(oids.begin(), oids.end());
  }
  popularity_.resize(docs_.size());
  for (uint32_t i = 0; i < docs_.size(); i++) {
    popularity_[i] = i;
  }
  std::shuffle(popularity_.begin(), popularity_.end(), std::mt19937_64(seed));
  access_ = Zipf(std::max<size_t>(docs_.size(), 1), 1.0);
  if (docs_.empty()) {
    return Status::Internal("set-up created no documents");
  }
  return Status::Ok();
}

bool DesktopSearch::HasTag(const Doc& d, const std::string& tag,
                           const std::string& value) const {
  return std::binary_search(d.tags.begin(), d.tags.end(), TagValue{tag, value}, TagLess);
}

bool DesktopSearch::HasPrefix(const Doc& d, const std::string& tag,
                              const std::string& prefix) const {
  auto it = std::lower_bound(d.tags.begin(), d.tags.end(), TagValue{tag, prefix}, TagLess);
  return it != d.tags.end() && it->tag == tag && it->value.compare(0, prefix.size(), prefix) == 0;
}

bool DesktopSearch::Matches(const Doc& d, int client, const QTerm& t) const {
  switch (t.kind) {
    case QTerm::kPlain:
      return HasTag(d, t.tag, t.value);
    case QTerm::kPrefix:
      return HasPrefix(d, t.tag, t.value);
    case QTerm::kNot:
      return !HasTag(d, t.tag, t.value);
    case QTerm::kLabel: {
      auto it = labels_[client].mask.find(d.oid);
      return it != labels_[client].mask.end() && (it->second >> t.label & 1) != 0;
    }
  }
  return false;
}

// The first limit+1 matching oids, ascending. Candidates come from the smallest plain or
// label term; every query has one.
std::vector<ObjectId> DesktopSearch::Evaluate(int client, const std::vector<QTerm>& q,
                                              size_t limit) const {
  static const std::vector<ObjectId> kEmpty;
  const std::vector<ObjectId>* vec = nullptr;
  const std::set<ObjectId>* set = nullptr;
  size_t best = SIZE_MAX;
  for (const QTerm& t : q) {
    if (t.kind == QTerm::kPlain) {
      auto it = tag_index_.find(Key(t.tag, t.value));
      const auto* v = it == tag_index_.end() ? &kEmpty : &it->second;
      if (v->size() < best) {
        best = v->size(), vec = v, set = nullptr;
      }
    } else if (t.kind == QTerm::kLabel) {
      const auto* s = &labels_[client].docs[t.label];
      if (s->size() < best) {
        best = s->size(), set = s, vec = nullptr;
      }
    }
  }
  std::vector<ObjectId> out;
  auto consider = [&](ObjectId oid) {
    const Doc& d = docs_[by_oid_.at(oid)];
    for (const QTerm& t : q) {
      if (!Matches(d, client, t)) {
        return true;
      }
    }
    out.push_back(oid);
    return out.size() <= limit;
  };
  if (vec != nullptr) {
    for (ObjectId oid : *vec) {
      if (!consider(oid)) break;
    }
  } else if (set != nullptr) {
    for (ObjectId oid : *set) {
      if (!consider(oid)) break;
    }
  }
  return out;
}

// Only the owning client labels a document, so its names are the set-up names plus
// the owner's labels.
std::vector<TagValue> DesktopSearch::ExpectedTags(const Doc& d) const {
  std::vector<TagValue> want = d.tags;
  const int owner = d.owner;
  auto it = labels_[owner].mask.find(d.oid);
  for (int k = 0; it != labels_[owner].mask.end() && k < kLabels; k++) {
    if (it->second >> k & 1) {
      want.push_back({"UDEF", LabelValue(owner, k)});
    }
  }
  std::sort(want.begin(), want.end(), TagLess);
  return want;
}

void DesktopSearch::AdoptLabels(ObjectId oid, int owner,
                                const std::vector<TagValue>& tags) {
  Labels& l = labels_[owner];
  uint8_t mask = 0;
  for (const TagValue& t : tags) {
    for (int k = 0; k < kLabels; k++) {
      if (t.tag == "UDEF" && t.value == LabelValue(owner, k)) {
        mask |= static_cast<uint8_t>(1u << k);
      }
    }
  }
  for (int k = 0; k < kLabels; k++) {
    if (mask >> k & 1) {
      l.docs[k].insert(oid);
    } else {
      l.docs[k].erase(oid);
    }
  }
  l.mask[oid] = mask;
}

bool IsLabel(const TagValue& t) {
  return t.tag == "UDEF" && t.value.size() > 1 && t.value[0] == 'c' &&
         std::isdigit(static_cast<unsigned char>(t.value[1]));
}

void DesktopSearch::AdoptTags(Doc* d, const std::vector<TagValue>& tags) {
  std::vector<TagValue> names;
  for (const TagValue& t : tags) {
    if (!IsLabel(t)) {
      names.push_back(t);
    }
  }
  for (const TagValue& t : d->tags) {
    if (!std::binary_search(names.begin(), names.end(), t, TagLess)) {
      auto& post = tag_index_[Key(t.tag, t.value)];
      post.erase(std::lower_bound(post.begin(), post.end(), d->oid));
    }
  }
  for (const TagValue& t : names) {
    if (!HasTag(*d, t.tag, t.value)) {
      auto& post = tag_index_[Key(t.tag, t.value)];
      post.insert(std::lower_bound(post.begin(), post.end(), d->oid), d->oid);
    }
  }
  d->tags = std::move(names);
  AdoptLabels(d->oid, d->owner, tags);
}

void DesktopSearch::DoFind(Client* c) {
  const Doc& d = PickDoc(c);
  const int me = c->id();
  auto tag_of = [&](const char* tag, const char* prefix) -> const TagValue& {
    for (const TagValue& t : d.tags) {
      if (t.tag == tag && t.value.rfind(prefix, 0) == 0) return t;
    }
    return d.tags.front();
  };
  const TagValue& user = tag_of("USER", "u");
  const TagValue& app = tag_of("APP", "");
  const TagValue& topic = tag_of("UDEF", "topic");
  const TagValue& date = tag_of("UDEF", "t2");
  std::vector<QTerm> q;
  switch (c->rng().Uniform(5)) {
    case 0:
      q = {{QTerm::kPlain, user.tag, user.value}, {QTerm::kPlain, topic.tag, topic.value}};
      break;
    case 1:
      q = {{QTerm::kPlain, app.tag, app.value},
           {QTerm::kPrefix, "UDEF", date.value.substr(0, 7)},
           {QTerm::kNot, "USER", "u" + std::to_string(users_.Sample(&c->rng()))}};
      break;
    case 2:
      q = {{QTerm::kPlain, topic.tag, topic.value},
           {QTerm::kPrefix, "UDEF", date.value.substr(0, 5)}};
      break;
    case 3:
      q = {{QTerm::kLabel, "UDEF", "", static_cast<int>(c->rng().Uniform(kLabels))},
           {QTerm::kPlain, app.tag, app.value}};
      q[0].value = LabelValue(me, q[0].label);
      break;
    default:
      q = {{QTerm::kPlain, user.tag, user.value},
           {QTerm::kPrefix, "APP", kAppPrefixes[c->rng().Uniform(kAppPrefixes.size())]},
           {QTerm::kNot, "UDEF", "topic" + std::to_string(topics_.Sample(&c->rng()))}};
  }
  std::vector<std::unique_ptr<query::Expr>> parts;
  for (const QTerm& t : q) {
    switch (t.kind) {
      case QTerm::kPrefix:
        parts.push_back(query::Expr::Prefix(t.tag, t.value));
        break;
      case QTerm::kNot:
        parts.push_back(query::Expr::Not(query::Expr::Term(t.tag, t.value)));
        break;
      default:
        parts.push_back(query::Expr::Term(t.tag, t.value));
    }
  }
  auto expr = query::Expr::And(std::move(parts));
  query::PlanStats ps;
  query::FindOptions opts;
  opts.limit = kFindLimit;
  opts.stats = c->tracing() ? &ps : nullptr;
  auto page = c->Op(Kind::kLookup, "core.find",
                    [&] { return run_->fs()->Find(*expr, opts); });
  if (!page.ok()) {
    return;
  }
  if (c->tracing()) {
    c->AddPlanStats(ps, page->ids.size());
  }
  Client::CheckScope check(c);
  std::vector<ObjectId> want = Evaluate(me, q, kFindLimit);
  const bool more = want.size() > kFindLimit;
  want.resize(std::min(want.size(), kFindLimit));
  Expect(run_, page->ids == want && page->has_more == more,
         "Find " + query::ToString(*expr) + " returned " + std::to_string(page->ids.size()) +
             " ids (has_more " + std::to_string(page->has_more) + "), model " +
             std::to_string(want.size()) + " (has_more " + std::to_string(more) + ")");
}

void DesktopSearch::DoSearchText(Client* c) {
  const Doc& d = PickDoc(c);
  std::vector<uint32_t> terms = {d.words[c->rng().Uniform(d.words.size())]};
  if (c->rng().Chance(0.5)) {
    terms.push_back(d.words[c->rng().Uniform(d.words.size())]);
  }
  std::vector<std::string> words;
  for (uint32_t w : terms) {
    words.push_back(Word(w));
  }
  auto hits = c->Op(Kind::kLookup, "core.search_text",
                    [&] { return run_->fs()->SearchText(words, kSearchLimit); });
  if (!hits.ok()) {
    return;
  }
  Client::CheckScope check(c);
  size_t matching = 0;  // Documents containing every term.
  {
    const auto& a = term_index_[terms[0]];
    const auto& b = term_index_[terms.back()];
    for (ObjectId oid : a) {
      matching += std::binary_search(b.begin(), b.end(), oid) ? 1 : 0;
    }
  }
  std::set<ObjectId> seen;
  for (const auto& h : hits.value()) {
    auto it = by_oid_.find(h.docid);
    if (it != by_oid_.end() && docs_[it->second].words_stale) {
      continue;  // Its terms are no longer the model's.
    }
    bool sound = seen.insert(h.docid).second;
    for (uint32_t w : terms) {
      const auto& post = term_index_[w];
      sound = sound && std::binary_search(post.begin(), post.end(), h.docid);
    }
    Expect(run_, sound, "SearchText hit " + std::to_string(h.docid) + " does not contain " +
                            words[0] + (words.size() > 1 ? " " + words[1] : ""));
  }
  if (ft_complete_) {
    Expect(run_, hits->size() == std::min(matching, kSearchLimit),
           "SearchText " + words[0] + " returned " + std::to_string(hits->size()) +
               " hits, model has " + std::to_string(matching) + " documents");
  }
}

void DesktopSearch::DoRead(Client* c) {
  const Doc& d = PickDoc(c);
  std::string out;
  Status s = c->Op(Kind::kAccess, "core.read",
                   [&] { return run_->fs()->Read(d.oid, 0, d.body.size() + 16, &out); });
  if (!s.ok()) {
    return;
  }
  Client::CheckScope check(c);
  if (run_->PlantWrongHere()) {
    out[0] ^= 1;
  }
  Expect(run_, out == d.body, "Read of object " + std::to_string(d.oid) + " differs");
}

void DesktopSearch::DoTags(Client* c) {
  const Doc& d = PickDoc(c);
  auto tags = c->Op(Kind::kAccess, "core.tags", [&] { return run_->fs()->Tags(d.oid); });
  if (!tags.ok()) {
    return;
  }
  Client::CheckScope check(c);
  const bool own = d.owner == c->id();
  if (own) {
    // Only this client labels its own documents, so the answer is exact.
    std::vector<TagValue> want = ExpectedTags(d);
    bool eq = tags->size() == want.size();
    for (size_t i = 0; eq && i < want.size(); i++) {
      eq = TagEq((*tags)[i], want[i]);
    }
    Expect(run_, eq, "Tags of object " + std::to_string(d.oid) + " differ from the model");
    return;
  }
  // Another client may be relabelling this document: check the set-up names are all
  // there and that nothing else appears but that client's labels.
  const std::string other = "c" + std::to_string(d.owner) + "l";
  size_t found = 0;
  for (const TagValue& t : *tags) {
    if (HasTag(d, t.tag, t.value)) {
      found++;
    } else {
      Expect(run_, t.tag == "UDEF" && t.value.compare(0, other.size(), other) == 0,
             "Tags of object " + std::to_string(d.oid) + " has unexpected " + t.tag + ":" +
                 t.value);
    }
  }
  Expect(run_, found == d.tags.size(),
         "Tags of object " + std::to_string(d.oid) + " lost a set-up name");
}

void DesktopSearch::DoStat(Client* c) {
  const Doc& d = PickDoc(c);
  auto meta = c->Op(Kind::kAccess, "core.stat", [&] { return run_->fs()->Stat(d.oid); });
  if (!meta.ok()) {
    return;
  }
  Client::CheckScope check(c);
  Expect(run_, meta->size == d.body.size(),
         "Stat of object " + std::to_string(d.oid) + " has the wrong size");
}

// A user relabelling a few of their own documents, then saving (Sync).
void DesktopSearch::DoMutations(Client* c) {
  const int me = c->id();
  Labels& mine = labels_[me];
  const int n = static_cast<int>(c->rng().Range(1, 3));
  for (int i = 0; i < n; i++) {
    size_t idx = popularity_[access_.Sample(&c->rng())];
    idx = idx - idx % kClients + me;
    if (idx >= docs_.size()) {
      idx -= kClients;
    }
    const Doc& d = docs_[idx];
    if (d.gone) {
      continue;
    }
    const int k = static_cast<int>(c->rng().Uniform(kLabels));
    const TagValue label{"UDEF", LabelValue(me, k)};
    const bool has = (mine.mask[d.oid] >> k & 1) != 0;
    Status s = has ? c->Op(Kind::kMutate, "core.remove_tag",
                           [&] { return run_->fs()->RemoveTag(d.oid, label); })
                   : c->Op(Kind::kMutate, "core.add_tag",
                           [&] { return run_->fs()->AddTag(d.oid, label); });
    mine.unsynced.insert(d.oid);
    if (s.ok()) {
      mine.mask[d.oid] ^= static_cast<uint8_t>(1u << k);
      if (has) {
        mine.docs[k].erase(d.oid);
      } else {
        mine.docs[k].insert(d.oid);
      }
      continue;
    }
    Client::CheckScope check(c);
    auto tags = run_->fs()->Tags(d.oid);
    if (run_->Count(tags.ok(), "Tags after a failed relabel", nullptr)) {
      AdoptLabels(d.oid, me, *tags);
    }
  }
  Status s = c->Op(Kind::kSync, "core.sync", [&] { return run_->fs()->Sync(); });
  if (s.ok()) {
    mine.unsynced.clear();
  }
}

void DesktopSearch::AfterDrain(bool drained) {
  if (!drained) {
    return;
  }
  for (Labels& l : labels_) {
    l.unsynced.clear();
  }
}

void DesktopSearch::Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) {
  for (uint64_t ops = 0; ops < max_ops && NowNs() < deadline_ns; ops++) {
    // Mostly reads with about 5% relabel groups; the five read ops share the rest
    // evenly (an assumption: no trace fixes the split).
    const uint64_t r = c->rng().Uniform(100);
    if (r < 19) {
      DoFind(c);
    } else if (r < 38) {
      DoSearchText(c);
    } else if (r < 57) {
      DoRead(c);
    } else if (r < 76) {
      DoTags(c);
    } else if (r < 95) {
      DoStat(c);
    } else {
      DoMutations(c);
    }
  }
}

// Every document must still carry its names and bytes, and its unique term must still
// find it. A difference is a lost acknowledged change: counted, then adopted so the live
// checks that follow compare against what the volume now holds.
void DesktopSearch::Probe(bool lost) {
  hfad::core::FileSystem* fs = run_->fs();
  for (int owner = 0; owner < kClients && !lost; owner++) {
    for (ObjectId oid : labels_[owner].unsynced) {
      auto tags = fs->Tags(oid);
      if (run_->Count(tags.ok(), "probe Tags", nullptr)) {
        AdoptLabels(oid, owner, *tags);
      }
    }
    labels_[owner].unsynced.clear();
  }
  for (Doc& d : docs_) {
    if (d.gone) {
      continue;
    }
    if (lost) {
      run_->Count(false, "document lost with the volume");
      continue;
    }
    auto tags = fs->Tags(d.oid);
    if (!run_->Count(tags.ok(), "synced document missing after reopen", nullptr)) {
      AdoptTags(&d, {});
      d.gone = true;
      continue;
    }
    const std::vector<TagValue> want = ExpectedTags(d);
    bool eq = tags->size() == want.size();
    for (size_t j = 0; eq && j < want.size(); j++) {
      eq = TagEq((*tags)[j], want[j]);
    }
    if (!run_->Count(eq, "synced names differ after reopen")) {
      AdoptTags(&d, *tags);
    }
    std::string out;
    Status r = fs->Read(d.oid, 0, d.body.size() + 16, &out);
    if (run_->Count(r.ok(), "probe Read", &r) &&
        !run_->Count(out == d.body, "synced bytes differ after reopen")) {
      d.body = out;
      d.words_stale = true;
      ft_complete_ = false;
    }
    if (d.ft_lost) {
      continue;
    }
    auto hits = fs->SearchText({UniqueTerm(d.serial)}, 0);
    if (!run_->Count(hits.ok(), "probe SearchText", nullptr)) {
      continue;
    }
    bool found = false;
    for (const auto& h : *hits) {
      Expect(run_, h.docid == d.oid,
             "SearchText " + UniqueTerm(d.serial) + " found another document");
      found = found || h.docid == d.oid;
    }
    if (!run_->Count(found, "indexed content missing after reopen")) {
      d.ft_lost = true;
      ft_complete_ = false;
    }
  }
}

}  // namespace

std::unique_ptr<Workload> MakeDesktopSearch(Run* run) {
  return std::make_unique<DesktopSearch>(run);
}

}  // namespace perfbench
