// Offline volume consistency checker ("hfadck").
//
// A tag namespace has invariants a hierarchy never needed: the forward indexes
// (value -> oid) and the reverse map (oid -> names) must mirror each other exactly, and
// every index entry must point at a live object. This checker walks the whole volume and
// verifies:
//
//   1. every object's extent tree passes its structural self-check and its recorded
//      size matches the tree;
//   2. every reverse-map name has a matching forward-index entry (no dangling names);
//   3. every forward-index entry for the standard stores has a matching reverse entry
//      (no orphaned index entries) and names a live object;
//   4. every object whose content was indexed (its FULLTEXT marker in the reverse map)
//      is in the full-text index, and full-text postings reference live objects.
//
// Read-only: fsck reports; it does not repair. Run it on a quiescent FileSystem (no
// concurrent mutations).
#ifndef HFAD_SRC_CORE_FSCK_H_
#define HFAD_SRC_CORE_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/filesystem.h"

namespace hfad {
namespace core {

struct FsckReport {
  uint64_t objects_checked = 0;
  uint64_t names_checked = 0;
  uint64_t postings_checked = 0;
  // OSD shards the object pass covered (1 on a single-volume filesystem).
  uint64_t shards_checked = 0;
  // Device pages quarantined by the scrubber (corrupt with no clean cached copy).
  // Each is also listed in problems with its shard and offset.
  uint64_t quarantined_pages = 0;
  // Human-readable description of every inconsistency found.
  std::vector<std::string> problems;

  bool clean() const { return problems.empty(); }
  std::string ToString() const;
};

// Walk the volume and verify the invariants above. Returns the report; a non-OK status
// means the check itself could not run (IO error), not that the volume is inconsistent.
Result<FsckReport> CheckFileSystem(FileSystem* fs);

}  // namespace core
}  // namespace hfad

#endif  // HFAD_SRC_CORE_FSCK_H_
