// posix_tree: the POSIX veneer, one client so its attribution is exact. A directory
// tree (8 top directories of 6 leaf directories, 12 files each at the start) whose heap
// fits in half the pager cache. The mix maps desktop_search's op for op onto paths:
// Find -> Readdir of a bounded directory, SearchText and Read -> open/Pread/close, Tags
// and Stat -> Stat, and a relabel group -> a group of 1-3 namespace mutations (an
// editor's save: open with create+truncate, Pwrite, close; Rename; Unlink; Mkdir), then
// Sync.
#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "perfbench/src/workload.h"
#include "src/posix/posix_fs.h"

namespace perfbench {
namespace {

using hfad::Status;
namespace posix = hfad::posix;

constexpr int kTopDirs = 8;
constexpr int kLeafDirsPerTop = 6;
constexpr int kFilesPerDir = 12;
constexpr size_t kMaxFilesPerDir = 24;  // Keeps every Readdir bounded.
constexpr size_t kMinFilesPerDir = 8;
constexpr size_t kMaxLeafDirs = 512;
constexpr size_t kTombstones = 256;
constexpr uint64_t kHeapLimitBytes = 4096 / 2 * 4096;  // Half the default pager cache.

std::string Parent(const std::string& path) { return posix::ParentPath(path); }
std::string Base(const std::string& path) { return posix::Basename(path); }

class PosixTree : public Workload {
 public:
  explicit PosixTree(Run* run) : Workload(run) {}

  int clients() const override { return 1; }
  Status Setup(uint64_t seed) override;
  void Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) override;
  void AfterDrain(bool drained) override;
  Status Remount() override;
  void Probe(bool lost) override;
  uint64_t LiveUserBytes() const override;
  std::string Describe() const override {
    return std::to_string(files_.size()) + " files in " + std::to_string(leaves_.size()) +
           " leaf directories, " + std::to_string(LiveUserBytes()) + " bytes";
  }

 private:
  std::string NewBody(Rng* rng);
  const std::string& PickFile(Rng* rng) const {
    return file_list_[zipf_.Sample(rng) % file_list_.size()];
  }
  const std::string& PickLeaf(Rng* rng) const { return leaves_[rng->Uniform(leaves_.size())]; }
  void AddFile(const std::string& path, std::string body);
  void DropFile(const std::string& path);
  // A namespace mutation was acknowledged: `path` changed and is volatile until Sync.
  void Touched(const std::string& path);
  // A mutation of `path` failed: it and its directory's listing are unknown.
  void Unknown(const std::string& path) {
    uncertain_.insert(path);
    uncertain_.insert(Parent(path));
  }

  void DoRead(Client* c);
  void DoStat(Client* c);
  void DoReaddir(Client* c);
  void DoSave(Client* c);
  void DoRename(Client* c);
  void DoUnlink(Client* c);
  void DoMkdir(Client* c);
  void DoMutations(Client* c);
  void CheckReaddir(const std::string& dir, const std::vector<posix::DirEntry>& got,
                    bool probe);
  // After a reopen the probe has counted every difference; the model becomes the tree
  // the volume now holds.
  void AdoptTree();

  std::unique_ptr<posix::PosixFs> pfs_;
  std::map<std::string, std::string> files_;          // Path -> bytes.
  std::map<std::string, std::set<std::string>> dirs_;  // Directory -> child names.
  std::vector<std::string> file_list_;                 // For Zipf picks.
  std::map<std::string, size_t> file_pos_;
  std::vector<std::string> leaves_;
  std::set<std::string> unsynced_;   // Paths changed since the last successful Sync.
  std::set<std::string> uncertain_;  // Paths a failed mutation left unknown.
  std::deque<std::string> removed_;  // Synced removals, newest last.
  std::vector<std::string> removed_unsynced_;
  Zipf zipf_{4096, 1.0};
  TextPool texts_;
  uint64_t next_name_ = 0;
};

std::string PosixTree::NewBody(Rng* rng) { return texts_.Pick(rng); }

void PosixTree::AddFile(const std::string& path, std::string body) {
  if (files_.count(path) == 0) {
    file_pos_[path] = file_list_.size();
    file_list_.push_back(path);
    dirs_[Parent(path)].insert(Base(path));
  }
  files_[path] = std::move(body);
}

void PosixTree::DropFile(const std::string& path) {
  const size_t pos = file_pos_.at(path);
  file_pos_[file_list_.back()] = pos;
  std::swap(file_list_[pos], file_list_.back());
  file_list_.pop_back();
  file_pos_.erase(path);
  files_.erase(path);
  dirs_[Parent(path)].erase(Base(path));
}

void PosixTree::Touched(const std::string& path) {
  unsynced_.insert(path);
  unsynced_.insert(Parent(path));
}

Status PosixTree::Remount() {
  pfs_.reset();
  auto pfs = posix::PosixFs::Mount(run_->fs());
  if (!pfs.ok()) {
    return pfs.status();
  }
  pfs_ = std::move(pfs).value();
  return Status::Ok();
}

Status PosixTree::Setup(uint64_t seed) {
  files_.clear();
  dirs_.clear();
  file_list_.clear();
  file_pos_.clear();
  leaves_.clear();
  unsynced_.clear();
  uncertain_.clear();
  removed_.clear();
  removed_unsynced_.clear();
  next_name_ = 0;
  Rng rng(seed);
  texts_.Fill(&rng, 512, 256, 6144);
  Status s = Remount();
  if (!s.ok()) {
    return s;
  }
  dirs_["/"];
  for (int t = 0; t < kTopDirs; t++) {
    const std::string top = "/p" + std::to_string(t);
    s = pfs_->Mkdir(top);
    run_->Count(s.ok(), "set-up Mkdir", &s);
    dirs_["/"].insert(Base(top));
    dirs_[top];
    for (int l = 0; l < kLeafDirsPerTop; l++) {
      const std::string leaf = top + "/s" + std::to_string(l);
      s = pfs_->Mkdir(leaf);
      run_->Count(s.ok(), "set-up Mkdir", &s);
      dirs_[top].insert(Base(leaf));
      dirs_[leaf];
      leaves_.push_back(leaf);
      for (int f = 0; f < kFilesPerDir; f++) {
        const std::string path = leaf + "/f" + std::to_string(f) + ".txt";
        std::string body = texts_.At((t * kLeafDirsPerTop + l) * kFilesPerDir + f);
        auto fd = pfs_->Open(path, posix::kWrite | posix::kCreate);
        const Status os = fd.status();
        if (!run_->Count(fd.ok(), "set-up Open", &os)) {
          continue;
        }
        auto n = pfs_->Pwrite(*fd, 0, body);
        const Status ws = n.status();
        run_->Count(n.ok(), "set-up Pwrite", &ws);
        Status cs = pfs_->Close(*fd);
        run_->Count(cs.ok(), "set-up Close", &cs);
        if (n.ok()) {
          AddFile(path, std::move(body));
        } else {
          Unknown(path);
        }
      }
    }
  }
  s = pfs_->Sync();
  run_->Count(s.ok(), "set-up Sync", &s);
  if (run_->fs()->volume()->heap_allocated_bytes() > kHeapLimitBytes) {
    std::fprintf(stderr, "posix_tree: heap %llu bytes exceeds half the pager cache\n",
                 static_cast<unsigned long long>(run_->fs()->volume()->heap_allocated_bytes()));
  }
  return Status::Ok();
}

void PosixTree::DoRead(Client* c) {
  const std::string& path = PickFile(&c->rng());
  if (uncertain_.count(path) != 0) {
    return;
  }
  auto fd = c->Op(Kind::kLookup, "posix.open", [&] { return pfs_->Open(path, posix::kRead); });
  if (!fd.ok()) {
    return;
  }
  const std::string& want = files_.at(path);
  std::string out;
  auto n = c->Op(Kind::kAccess, "posix.pread",
                 [&] { return pfs_->Pread(*fd, 0, want.size() + 16, &out); });
  if (n.ok()) {
    Client::CheckScope check(c);
    if (run_->PlantWrongHere()) {
      out[0] ^= 1;
    }
    Expect(run_, out == want && *n == want.size(), "Pread of " + path + " differs");
  }
  c->Op(Kind::kAccess, "posix.close", [&] { return pfs_->Close(*fd); });
}

void PosixTree::DoStat(Client* c) {
  const std::string& path = PickFile(&c->rng());
  if (uncertain_.count(path) != 0) {
    return;
  }
  auto st = c->Op(Kind::kLookup, "posix.stat", [&] { return pfs_->Stat(path); });
  if (!st.ok()) {
    return;
  }
  Client::CheckScope check(c);
  Expect(run_, !st->is_dir, "Stat of " + path + " has the wrong type");
  Expect(run_, st->meta.size == files_.at(path).size(), "Stat of " + path + " has the wrong size");
}

// Live answers must match the model exactly. After a reopen a missing or resurrected
// entry is a lost acknowledged change (a counted failure); a wrong type is never allowed.
void PosixTree::CheckReaddir(const std::string& dir, const std::vector<posix::DirEntry>& got,
                             bool probe) {
  const std::set<std::string>& want = dirs_.at(dir);
  std::set<std::string> names;
  size_t unknown = 0;
  for (const posix::DirEntry& e : got) {
    const std::string path = (dir == "/" ? "" : dir) + "/" + e.name;
    Expect(run_, names.insert(e.name).second, "Readdir " + dir + " lists " + e.name + " twice");
    if (want.count(e.name) == 0) {
      unknown++;
      continue;
    }
    Expect(run_, e.is_dir == (dirs_.count(path) != 0), "Readdir " + dir + ": wrong type for " + e.name);
  }
  size_t missing = 0;
  for (const std::string& name : want) {
    missing += names.count(name) == 0 ? 1 : 0;
  }
  if (probe) {
    run_->Count(missing == 0 && unknown == 0, "synced directory change lost after reopen");
  } else {
    Expect(run_, missing == 0 && unknown == 0,
           "Readdir " + dir + ": " + std::to_string(missing) + " entries missing, " +
               std::to_string(unknown) + " unknown");
  }
}

void PosixTree::DoReaddir(Client* c) {
  const std::string& dir = PickLeaf(&c->rng());
  if (uncertain_.count(dir) != 0) {
    return;
  }
  auto entries = c->Op(Kind::kLookup, "posix.readdir", [&] { return pfs_->Readdir(dir); });
  if (entries.ok()) {
    Client::CheckScope check(c);
    CheckReaddir(dir, *entries, false);
  }
}

// An editor saving a file: rewrite an existing one, or create a new one in a
// directory with room.
void PosixTree::DoSave(Client* c) {
  std::string path;
  const std::string& leaf = PickLeaf(&c->rng());
  if (c->rng().Chance(0.5) && dirs_.at(leaf).size() < kMaxFilesPerDir) {
    path = leaf + "/n" + std::to_string(next_name_++) + ".txt";
  } else {
    path = PickFile(&c->rng());
  }
  if (uncertain_.count(path) != 0 || uncertain_.count(Parent(path)) != 0) {
    return;
  }
  std::string body = NewBody(&c->rng());
  auto fd = c->Op(Kind::kMutate, "posix.open", [&] {
    return pfs_->Open(path, posix::kWrite | posix::kCreate | posix::kTruncate);
  });
  if (!fd.ok()) {
    Unknown(path);
    return;
  }
  AddFile(path, "");
  Touched(path);
  auto n = c->Op(Kind::kMutate, "posix.pwrite", [&] { return pfs_->Pwrite(*fd, 0, body); });
  run_->user_bytes_written += body.size();
  if (n.ok() && *n == body.size()) {
    files_[path] = std::move(body);
  } else {
    Unknown(path);
  }
  c->Op(Kind::kAccess, "posix.close", [&] { return pfs_->Close(*fd); });
}

void PosixTree::DoRename(Client* c) {
  const std::string from = PickFile(&c->rng());
  const std::string& leaf = PickLeaf(&c->rng());
  if (dirs_.at(leaf).size() >= kMaxFilesPerDir || dirs_.at(Parent(from)).size() <= kMinFilesPerDir ||
      uncertain_.count(from) != 0 || uncertain_.count(leaf) != 0) {
    return;
  }
  const std::string to = leaf + "/r" + std::to_string(next_name_++) + ".txt";
  Status s = c->Op(Kind::kMutate, "posix.rename", [&] { return pfs_->Rename(from, to); });
  if (!s.ok()) {
    Unknown(from);
    Unknown(to);
    return;
  }
  std::string body = files_.at(from);
  DropFile(from);
  AddFile(to, std::move(body));
  Touched(from);
  Touched(to);
  removed_unsynced_.push_back(from);
}

void PosixTree::DoUnlink(Client* c) {
  const std::string path = PickFile(&c->rng());
  if (dirs_.at(Parent(path)).size() <= kMinFilesPerDir || uncertain_.count(path) != 0) {
    return;
  }
  Status s = c->Op(Kind::kMutate, "posix.unlink", [&] { return pfs_->Unlink(path); });
  if (!s.ok()) {
    Unknown(path);
    return;
  }
  DropFile(path);
  Touched(path);
  removed_unsynced_.push_back(path);
}

void PosixTree::DoMkdir(Client* c) {
  if (leaves_.size() >= kMaxLeafDirs) {
    return;
  }
  const std::string top = "/p" + std::to_string(c->rng().Uniform(kTopDirs));
  const std::string dir = top + "/m" + std::to_string(next_name_++);
  Status s = c->Op(Kind::kMutate, "posix.mkdir", [&] { return pfs_->Mkdir(dir); });
  if (!s.ok()) {
    Unknown(dir);
    return;
  }
  dirs_[top].insert(Base(dir));
  dirs_[dir];
  leaves_.push_back(dir);
  Touched(dir);
}

// desktop_search's relabel group: 1-3 mutations, each kind equally likely, then Sync.
void PosixTree::DoMutations(Client* c) {
  const int n = static_cast<int>(c->rng().Range(1, 3));
  for (int i = 0; i < n; i++) {
    switch (c->rng().Uniform(4)) {
      case 0:
        DoSave(c);
        break;
      case 1:
        DoRename(c);
        break;
      case 2:
        DoUnlink(c);
        break;
      default:
        DoMkdir(c);
    }
  }
  Status s = c->Op(Kind::kSync, "posix.sync", [&] { return pfs_->Sync(); });
  AfterDrain(s.ok());
}

// desktop_search's mix (19% each of Find, SearchText, Read, Tags, Stat; 5% relabel
// groups) mapped onto the veneer.
void PosixTree::Loop(Client* c, uint64_t deadline_ns, uint64_t max_ops) {
  for (uint64_t ops = 0; ops < max_ops && NowNs() < deadline_ns; ops++) {
    const uint64_t r = c->rng().Uniform(100);
    if (r < 19) {
      DoReaddir(c);
    } else if (r < 57) {
      DoRead(c);
    } else if (r < 95) {
      DoStat(c);
    } else {
      DoMutations(c);
    }
  }
}

// A successful Sync or drain makes every acknowledged change durable.
void PosixTree::AfterDrain(bool drained) {
  if (!drained) {
    return;
  }
  unsynced_.clear();
  for (std::string& p : removed_unsynced_) {
    removed_.push_back(std::move(p));
  }
  removed_unsynced_.clear();
  while (removed_.size() > kTombstones) {
    removed_.pop_front();
  }
}

// Every synced file, directory listing and removal must have survived.
void PosixTree::Probe(bool lost) {
  for (const auto& [path, body] : files_) {
    if (unsynced_.count(path) != 0 || uncertain_.count(path) != 0) {
      continue;
    }
    if (lost) {
      run_->Count(false, "file lost with the volume");
      continue;
    }
    auto fd = pfs_->Open(path, posix::kRead);
    if (!run_->Count(fd.ok(), "synced file missing after reopen", nullptr)) {
      continue;
    }
    std::string out;
    auto n = pfs_->Pread(*fd, 0, body.size() + 16, &out);
    if (run_->Count(n.ok() && out.size() == body.size(), "synced bytes missing after reopen")) {
      Expect(run_, out == body, "Pread of " + path + " after reopen differs");
    }
    Status cs = pfs_->Close(*fd);
    run_->Count(cs.ok(), "Close", &cs);
  }
  for (const auto& [dir, names] : dirs_) {
    if (unsynced_.count(dir) != 0 || uncertain_.count(dir) != 0) {
      continue;
    }
    if (lost) {
      run_->Count(false, "directory lost with the volume");
      continue;
    }
    auto entries = pfs_->Readdir(dir);
    if (run_->Count(entries.ok(), "synced directory missing after reopen", nullptr)) {
      CheckReaddir(dir, *entries, true);
    }
  }
  for (const std::string& path : removed_) {
    if (lost) {
      break;  // Nothing to resurrect.
    }
    if (files_.count(path) != 0 || uncertain_.count(path) != 0) {
      continue;  // Re-created since.
    }
    auto st = pfs_->Stat(path);
    run_->Count(!st.ok() && st.status().IsNotFound(), "synced unlink undone after reopen");
  }
  if (!lost) {
    AdoptTree();
  }
}

void PosixTree::AdoptTree() {
  files_.clear();
  dirs_.clear();
  file_list_.clear();
  file_pos_.clear();
  leaves_.clear();
  unsynced_.clear();
  uncertain_.clear();
  std::vector<std::string> pending = {"/"};
  dirs_["/"];
  while (!pending.empty()) {
    const std::string dir = pending.back();
    pending.pop_back();
    auto entries = pfs_->Readdir(dir);
    if (!run_->Count(entries.ok(), "Readdir while re-reading the tree", nullptr)) {
      uncertain_.insert(dir);
      continue;
    }
    for (const posix::DirEntry& e : *entries) {
      const std::string path = (dir == "/" ? "" : dir) + "/" + e.name;
      dirs_[dir].insert(e.name);
      if (e.is_dir) {
        dirs_[path];
        pending.push_back(path);
        if (dir != "/") {
          leaves_.push_back(path);
        }
        continue;
      }
      std::string body;
      auto fd = pfs_->Open(path, posix::kRead);
      auto st = pfs_->Stat(path);
      if (fd.ok() && st.ok() && pfs_->Pread(*fd, 0, st->meta.size, &body).ok()) {
        AddFile(path, std::move(body));
      } else {
        dirs_[dir].erase(e.name);
        Unknown(path);
      }
      if (fd.ok()) {
        (void)pfs_->Close(*fd);
      }
    }
  }
  std::sort(leaves_.begin(), leaves_.end());
}

uint64_t PosixTree::LiveUserBytes() const {
  uint64_t n = 0;
  for (const auto& [path, body] : files_) {
    n += body.size();
  }
  return n;
}

}  // namespace

std::unique_ptr<Workload> MakePosixTree(Run* run) { return std::make_unique<PosixTree>(run); }

}  // namespace perfbench
