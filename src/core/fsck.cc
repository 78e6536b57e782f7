#include "src/core/fsck.h"

#include <set>

#include "src/index/index_store.h"

namespace hfad {
namespace core {

std::string FsckReport::ToString() const {
  std::string out = "fsck: " + std::to_string(objects_checked) + " objects, " +
                    std::to_string(names_checked) + " names, " +
                    std::to_string(postings_checked) + " indexed documents";
  if (shards_checked > 1) {
    out += " across " + std::to_string(shards_checked) + " shards";
  }
  if (clean()) {
    return out + " — clean";
  }
  out += " — " + std::to_string(problems.size()) + " problem(s):";
  for (const std::string& p : problems) {
    out += "\n  " + p;
  }
  return out;
}

Result<FsckReport> CheckFileSystem(FileSystem* fs) {
  FsckReport report;
  // All object probes route through the cluster: on a sharded filesystem ScanObjects
  // merges the per-shard tables into global oid order and CheckObject/Exists hit the
  // owning shard, so the invariants below hold across every volume at once.
  const osd::OsdCluster* cluster = fs->cluster();
  index::IndexCollection* indexes = fs->indexes();
  report.shards_checked = cluster->shard_count();

  // 1. Every object's data structures are internally consistent. Snapshot the oid list
  // first: CheckObject takes an object-shard lock, and mutators hold that lock while
  // updating the object table, so probing from inside ScanObjects' table lock would
  // invert the order (deadlock hazard when fsck runs beside live traffic).
  std::vector<ObjectId> oids;
  HFAD_RETURN_IF_ERROR(cluster->ScanObjects([&](ObjectId oid, const osd::ObjectMeta&) {
    oids.push_back(oid);
    return true;
  }));
  for (ObjectId oid : oids) {
    report.objects_checked++;
    Status s = cluster->CheckObject(oid);
    if (s.IsNotFound()) {
      continue;  // Deleted between snapshot and probe.
    }
    if (!s.ok()) {
      report.problems.push_back("object " + std::to_string(oid) + ": " + s.ToString());
    }
  }

  // The full-text store legitimately trails the FULLTEXT markers by exactly the
  // acknowledged-but-unapplied content intents; tags apply inline and get no such
  // allowance. Snapshot that set ONCE, before the phases below probe anything: the
  // background workers may apply ops mid-scan, and a pre-phase snapshot can only
  // over-allow a transiently-stale object, never report a phantom problem.
  const std::vector<ObjectId> pending_list = fs->PendingContentIntents();
  const std::set<ObjectId> pending(pending_list.begin(), pending_list.end());
  auto* ft = static_cast<index::FullTextIndexStore*>(indexes->store(index::kTagFulltext));
  std::set<ObjectId> documents;
  HFAD_RETURN_IF_ERROR(ft->engine()->ScanDocuments([&](uint64_t docid) {
    documents.insert(docid);
    return true;
  }));

  // 2. Reverse map -> forward indexes: no dangling names.
  HFAD_RETURN_IF_ERROR(fs->ScanAllNames([&](ObjectId oid, const TagValue& name) {
    report.names_checked++;
    if (!cluster->Exists(oid)) {
      report.problems.push_back("name " + name.tag + ":" + name.value +
                                " references dead object " + std::to_string(oid));
      return true;
    }
    if (name.tag == index::kTagFulltext) {
      // The content marker: IndexContent was acknowledged, so the document must be in
      // the full-text engine.
      if (documents.count(oid) == 0 && pending.count(oid) == 0) {
        report.problems.push_back("object " + std::to_string(oid) +
                                  " has indexed content missing from the full-text index");
      }
      return true;
    }
    const index::IndexStore* store = indexes->store(name.tag);
    if (store == nullptr) {
      report.problems.push_back("name with unregistered tag '" + name.tag + "' on object " +
                                std::to_string(oid));
      return true;
    }
    auto has = store->Contains(name.value, oid);
    if (!has.ok() || !*has) {
      report.problems.push_back("reverse name " + name.tag + ":" + name.value +
                                " missing from forward index (object " +
                                std::to_string(oid) + ")");
    }
    return true;
  }));

  // 3. Forward indexes -> reverse map: no orphaned entries, no dead objects.
  // Snapshot each store's entries before probing: HasName takes a tag-shard lock, and
  // the lock order is tag shards before store locks (docs/CONCURRENCY.md), so the
  // probes must not run inside ScanValues' store lock.
  for (const std::string& tag : indexes->tags()) {
    const index::IndexStore* store = indexes->store(tag);
    std::vector<std::pair<std::string, ObjectId>> entries;
    Status scan = store->ScanValues("", [&](Slice value, ObjectId oid) {
      entries.emplace_back(value.ToString(), oid);
      return true;
    });
    if (!scan.ok() && scan.code() != StatusCode::kNotSupported) {
      return scan;  // Real IO failure; NotSupported just means non-enumerable store.
    }
    for (const auto& [value, oid] : entries) {
      if (!cluster->Exists(oid)) {
        report.problems.push_back("index " + tag + " entry '" + value +
                                  "' references dead object " + std::to_string(oid));
        continue;
      }
      if (!fs->HasName(oid, {tag, value})) {
        report.problems.push_back("index " + tag + " entry '" + value +
                                  "' has no reverse name (object " + std::to_string(oid) +
                                  ")");
      }
    }
  }

  // 4. Full-text postings reference live objects (a pending strip is not a problem:
  // Remove deletes the object before the indexer strips its document).
  for (ObjectId docid : documents) {
    report.postings_checked++;
    if (!cluster->Exists(docid) && pending.count(docid) == 0) {
      report.problems.push_back("full-text index contains dead object " +
                                std::to_string(docid));
    }
  }

  // 5. Pages the scrubber quarantined are lost until something rewrites them; surface
  // each one so the operator knows which shard/offset needs attention.
  for (size_t k = 0; k < cluster->shard_count(); k++) {
    const PageChecksums* cksums = cluster->shard(k)->checksums();
    if (cksums == nullptr) {
      continue;
    }
    for (uint64_t offset : cksums->QuarantinedPages()) {
      report.quarantined_pages++;
      report.problems.push_back("shard " + std::to_string(k) + ": quarantined page at offset " +
                                std::to_string(offset) + " (scrub-confirmed corruption)");
    }
  }

  return report;
}

}  // namespace core
}  // namespace hfad
