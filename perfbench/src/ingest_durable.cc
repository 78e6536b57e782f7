// ingest_durable: the write side of the same index and pager layers. Two clients each
// keep a constant-size set of tagged documents (512 B - 16 KiB bodies) by churn: create,
// write and IndexContent a new document, retag one through a NamespaceBatch, remove the
// oldest, and Sync every 8 mutations (group commit). The library fits the pager cache.
#include <algorithm>
#include <deque>
#include <set>

#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

using hfad::Status;
using hfad::core::ObjectId;
using hfad::index::TagValue;

constexpr int kClients = 2;
constexpr size_t kDocsPerClient = 160;
constexpr int kMutationsPerSync = 8;
constexpr int kBatchTags = 16;       // UDEF:c<client>b<k> retag values.
constexpr size_t kTombstones = 256;  // Synced removes the probe re-checks.

bool TagLess(const TagValue& a, const TagValue& b) {
  return a.tag != b.tag ? a.tag < b.tag : a.value < b.value;
}

struct Doc {
  ObjectId oid = 0;
  uint64_t serial = 0;
  std::vector<TagValue> tags;  // Sorted.
  std::string body;
  bool indexed = false;  // IndexContent acknowledged for `body`.
  bool certain = true;   // False after a failed mutation left its state unknown.
};

struct ClientState {
  std::deque<Doc> live;  // Oldest first.
  uint64_t next_serial = 0;
  int since_sync = 0;
  size_t uncertain = 0;  // Live documents a failed mutation left unknown.
  std::set<ObjectId> unsynced;             // Mutated since this client's last Sync.
  std::vector<ObjectId> removed_unsynced;  // Removed since this client's last Sync.
  std::deque<ObjectId> removed;            // Synced removes, newest last.
  std::vector<std::pair<ObjectId, uint64_t>> indexed_since_drain;
};

class IngestDurable : public Workload {
 public:
  explicit IngestDurable(Run* run) : Workload(run) {}

  int clients() const override { return kClients; }
  Status Setup(uint64_t seed) override;
  void Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) override;
  void AfterDrain(bool drained) override;
  void Probe(bool lost) override;
  uint64_t LiveUserBytes() const override;
  std::string Describe() const override {
    return std::to_string(kClients * kDocsPerClient) + " live documents, " +
           std::to_string(LiveUserBytes()) + " body bytes";
  }

 private:
  Doc NewDoc(Rng* rng, int client, ClientState* st);
  // Create + Write + IndexContent through `c` (or directly when c is null, in set-up).
  void Ingest(Client* c, Rng* rng, int client);
  void Retag(Client* c, int client);
  void RemoveOldest(Client* c, int client);
  void MaybeSync(Client* c, int client, int mutations);
  void FindBatch(Client* c, int client, const TagValue& batch, const TagValue& app);
  // A successful Sync or drain made every acknowledged change of `st` durable.
  static void MarkSynced(ClientState* st);

  std::array<ClientState, kClients> clients_;
  TextPool texts_;
};

Doc IngestDurable::NewDoc(Rng* rng, int client, ClientState* st) {
  Doc d;
  d.serial = static_cast<uint64_t>(client) << 40 | st->next_serial++;
  d.tags = {{"USER", "u" + std::to_string(rng->Uniform(32))},
            {"APP", rng->Chance(0.5) ? "mail" : "notes"},
            {"UDEF", "c" + std::to_string(client) + "b" + std::to_string(rng->Uniform(kBatchTags))}};
  std::sort(d.tags.begin(), d.tags.end(), TagLess);
  d.body = UniqueTerm(d.serial) + " " + texts_.Pick(rng);
  return d;
}

Status StatusOf(const Status& s) { return s; }
template <class T>
Status StatusOf(const hfad::Result<T>& r) {
  return r.status();
}

// Set-up calls have no client: they are counted but not timed.
template <class F>
auto Call(Client* c, Run* run, Kind kind, const char* name, const char* what, F&& fn) {
  if (c != nullptr) {
    return c->Op(kind, name, fn);
  }
  auto r = fn();
  const Status s = StatusOf(r);
  run->Count(r.ok(), what, &s);
  return r;
}

void IngestDurable::Ingest(Client* c, Rng* rng, int client) {
  ClientState& st = clients_[client];
  Doc d = NewDoc(rng, client, &st);
  hfad::core::FileSystem* fs = run_->fs();
  auto oid = Call(c, run_, Kind::kMutate, "core.create", "Create",
                  [&] { return fs->Create(d.tags); });
  if (!oid.ok()) {
    return;
  }
  d.oid = *oid;
  Status w = Call(c, run_, Kind::kMutate, "core.write", "Write",
                  [&] { return fs->Write(d.oid, 0, d.body); });
  run_->user_bytes_written += d.body.size();
  Status ix = w;
  if (w.ok()) {
    ix = Call(c, run_, Kind::kMutate, "core.index_content", "IndexContent",
              [&] { return fs->IndexContent(d.oid); });
  }
  d.certain = w.ok();
  st.uncertain += d.certain ? 0 : 1;
  d.indexed = w.ok() && ix.ok();
  if (d.indexed) {
    run_->index_content_acked++;
    st.indexed_since_drain.push_back({d.oid, d.serial});
  }
  st.unsynced.insert(d.oid);
  st.live.push_back(std::move(d));
}

void IngestDurable::Retag(Client* c, int client) {
  ClientState& st = clients_[client];
  if (st.live.empty()) {
    return;
  }
  Doc& d = st.live[c->rng().Uniform(st.live.size())];
  TagValue* old = nullptr;
  for (TagValue& t : d.tags) {
    if (t.tag == "UDEF") old = &t;
  }
  const TagValue fresh{"UDEF", "c" + std::to_string(client) + "b" +
                                   std::to_string(c->rng().Uniform(kBatchTags))};
  if (!d.certain || old == nullptr || fresh.value == old->value) {
    return;
  }
  hfad::core::NamespaceBatch batch = run_->fs()->NewBatch();
  Status staged = batch.RemoveTag(d.oid, *old);
  if (staged.ok()) {
    staged = batch.AddTag(d.oid, fresh);
  }
  Expect(run_, staged.ok(), "NamespaceBatch refused to stage a valid retag: " + staged.ToString());
  Status s = c->Op(Kind::kMutate, "core.batch_commit", [&] { return batch.Commit(); });
  st.unsynced.insert(d.oid);
  if (!s.ok()) {
    d.certain = false;
    st.uncertain++;
    return;
  }
  *old = fresh;
  std::sort(d.tags.begin(), d.tags.end(), TagLess);
  FindBatch(c, client, fresh, d.tags.front());
}

// The client's documents in one retag batch of one app: a small Find whose answer the
// client alone determines.
void IngestDurable::FindBatch(Client* c, int client, const TagValue& batch, const TagValue& app) {
  hfad::query::FindOptions opts;
  opts.limit = 50;
  auto expr = hfad::query::Expr::AndTerms({batch, app});
  auto page = c->Op(Kind::kLookup, "core.find", [&] { return run_->fs()->Find(*expr, opts); });
  const ClientState& st = clients_[client];
  if (!page.ok() || st.uncertain != 0) {
    return;
  }
  Client::CheckScope check(c);
  std::vector<ObjectId> want;
  for (const Doc& d : st.live) {
    if (std::binary_search(d.tags.begin(), d.tags.end(), batch, TagLess) &&
        std::binary_search(d.tags.begin(), d.tags.end(), app, TagLess)) {
      want.push_back(d.oid);
    }
  }
  std::sort(want.begin(), want.end());
  const bool more = want.size() > opts.limit;
  want.resize(std::min(want.size(), opts.limit));
  Expect(run_, page->ids == want && page->has_more == more,
         "Find " + hfad::query::ToString(*expr) + " differs from the model");
}

void IngestDurable::RemoveOldest(Client* c, int client) {
  ClientState& st = clients_[client];
  Doc d = std::move(st.live.front());
  st.live.pop_front();
  st.uncertain -= d.certain ? 0 : 1;
  Status s = c->Op(Kind::kMutate, "core.remove", [&] { return run_->fs()->Remove(d.oid); });
  st.unsynced.erase(d.oid);
  if (s.ok()) {
    st.removed_unsynced.push_back(d.oid);
  }
}

void IngestDurable::MaybeSync(Client* c, int client, int mutations) {
  ClientState& st = clients_[client];
  st.since_sync += mutations;
  if (st.since_sync < kMutationsPerSync) {
    return;
  }
  st.since_sync = 0;
  Status s = c->Op(Kind::kSync, "core.sync", [&] { return run_->fs()->Sync(); });
  if (s.ok()) {
    MarkSynced(&st);
  }
}

void IngestDurable::MarkSynced(ClientState* st) {
  st->unsynced.clear();
  for (ObjectId oid : st->removed_unsynced) {
    st->removed.push_back(oid);
  }
  st->removed_unsynced.clear();
  while (st->removed.size() > kTombstones) {
    st->removed.pop_front();
  }
}

Status IngestDurable::Setup(uint64_t seed) {
  for (ClientState& st : clients_) {
    st = ClientState();
  }
  Rng rng(seed);
  texts_.Fill(&rng, 512, 512, 16384);
  for (size_t i = 0; i < kDocsPerClient; i++) {
    for (int client = 0; client < kClients; client++) {
      Ingest(nullptr, &rng, client);
    }
  }
  Status drained = run_->fs()->WaitForIndexing();
  Status synced = run_->fs()->Sync();
  run_->Count(drained.ok(), "set-up WaitForIndexing", &drained);
  run_->Count(synced.ok(), "set-up Sync", &synced);
  AfterDrain(drained.ok() && synced.ok());
  return Status::Ok();
}

void IngestDurable::Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) {
  const int me = c->id();
  ClientState& st = clients_[me];
  for (uint64_t ops = 0; ops < max_ops && NowNs() < deadline_ns; ops += 5) {
    Ingest(c, &c->rng(), me);
    Retag(c, me);
    if (st.live.size() > kDocsPerClient) {
      RemoveOldest(c, me);
    }
    MaybeSync(c, me, 5);
  }
}

// After a successful drain every document indexed before it must be found by its
// unique term.
void IngestDurable::AfterDrain(bool drained) {
  for (ClientState& st : clients_) {
    if (drained) {
      MarkSynced(&st);
      std::set<ObjectId> live;
      for (const Doc& d : st.live) {
        live.insert(d.oid);
      }
      for (const auto& [oid, serial] : st.indexed_since_drain) {
        if (live.count(oid) == 0) {
          continue;
        }
        auto hits = run_->fs()->SearchText({UniqueTerm(serial)}, 0);
        if (!run_->Count(hits.ok(), "SearchText after drain", nullptr)) {
          continue;
        }
        bool found = false;
        for (const auto& h : *hits) {
          Expect(run_, h.docid == oid, "SearchText " + UniqueTerm(serial) + " found another document");
          found = found || h.docid == oid;
        }
        Expect(run_, found, "SearchText " + UniqueTerm(serial) +
                                " misses a document indexed before a successful drain");
      }
    }
    st.indexed_since_drain.clear();
  }
}

// Every synced document must still carry its names, bytes and postings, and every
// synced remove must hold. A difference is a lost acknowledged change: counted, then
// adopted so the live checks that follow compare against what the volume now holds.
void IngestDurable::Probe(bool lost) {
  hfad::core::FileSystem* fs = run_->fs();
  for (ClientState& st : clients_) {
    std::deque<Doc> kept;
    for (Doc& d : st.live) {
      if (!d.certain || st.unsynced.count(d.oid) != 0) {
        kept.push_back(std::move(d));
        continue;
      }
      if (lost) {
        run_->Count(false, "document lost with the volume");
        continue;
      }
      auto tags = fs->Tags(d.oid);
      std::string out;
      Status r = tags.ok() ? fs->Read(d.oid, 0, d.body.size() + 16, &out) : tags.status();
      if (!run_->Count(r.ok(), "synced document missing after reopen", &r)) {
        continue;
      }
      bool same = tags->size() == d.tags.size();
      for (size_t i = 0; same && i < d.tags.size(); i++) {
        same = (*tags)[i].tag == d.tags[i].tag && (*tags)[i].value == d.tags[i].value;
      }
      if (!run_->Count(same, "synced names differ after reopen")) {
        d.tags = *tags;
      }
      if (!run_->Count(out == d.body, "synced bytes differ after reopen")) {
        d.body = out;
        d.indexed = false;
      }
      if (d.indexed) {
        auto hits = fs->SearchText({UniqueTerm(d.serial)}, 0);
        if (run_->Count(hits.ok(), "probe SearchText", nullptr)) {
          bool found = false;
          for (const auto& h : *hits) {
            Expect(run_, h.docid == d.oid,
                   "SearchText " + UniqueTerm(d.serial) + " found another document");
            found = found || h.docid == d.oid;
          }
          d.indexed = run_->Count(found, "indexed content missing after reopen");
        }
      }
      kept.push_back(std::move(d));
    }
    st.live = std::move(kept);
    std::deque<ObjectId> still_removed;
    for (ObjectId oid : st.removed) {
      if (lost) {
        break;  // Nothing to resurrect.
      }
      auto tags = fs->Tags(oid);
      if (run_->Count(!tags.ok() && tags.status().IsNotFound(), "synced remove undone after reopen")) {
        still_removed.push_back(oid);
        continue;
      }
      // Back from the dead: track it again so it is removed in turn.
      Doc d;
      d.oid = oid;
      d.tags = tags.ok() ? *tags : std::vector<TagValue>{};
      auto meta = fs->Stat(oid);
      d.certain = tags.ok() && meta.ok() && fs->Read(oid, 0, meta->size, &d.body).ok();
      st.uncertain += d.certain ? 0 : 1;
      st.live.push_front(std::move(d));
    }
    st.removed = std::move(still_removed);
  }
}

uint64_t IngestDurable::LiveUserBytes() const {
  uint64_t n = 0;
  for (const ClientState& st : clients_) {
    for (const Doc& d : st.live) {
      n += d.body.size();
    }
  }
  return n;
}

}  // namespace

std::unique_ptr<Workload> MakeIngestDurable(Run* run) {
  return std::make_unique<IngestDurable>(run);
}

}  // namespace perfbench
