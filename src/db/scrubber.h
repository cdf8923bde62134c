#ifndef VDB_DB_SCRUBBER_H_
#define VDB_DB_SCRUBBER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace vdb {

struct ScrubOptions {
  /// Move files that fail verification into `<dir>/quarantine/` so
  /// recovery stops tripping over them (it then falls back to the
  /// previous generation). Off by default: scrubbing is read-only.
  bool quarantine = false;
};

/// Per-file verdict of one scrub pass.
struct ScrubFileReport {
  std::string file;    ///< name relative to the data dir
  std::string kind;    ///< manifest | checkpoint | wal | orphan
  bool ok = false;
  std::string detail;  ///< human-readable note (error text, record counts)
  bool quarantined = false;
};

struct ScrubReport {
  std::vector<ScrubFileReport> files;
  std::size_t ok_files = 0;
  std::size_t corrupt_files = 0;
  std::size_t quarantined_files = 0;
  std::size_t wal_records = 0;       ///< valid records across all WALs
  std::size_t wal_torn_bytes = 0;    ///< bytes past the last valid record
  bool manifest_readable = false;

  /// Every referenced file verified and no torn WAL bytes.
  bool clean() const { return corrupt_files == 0 && wal_torn_bytes == 0; }
  std::string ToString() const;
};

/// Walks a RecoveryManager data directory verifying every CRC it can
/// reach: both manifest copies, every generation's checkpoint and WAL
/// (record-by-record), plus unreferenced stragglers
/// (reported as orphans, never quarantined). Verdicts land in the report
/// and in `vdb_scrub_*` telemetry counters. Exposed as `vdbsh .scrub`.
Result<ScrubReport> ScrubDirectory(const std::string& dir,
                                   const ScrubOptions& opts = {});

}  // namespace vdb

#endif  // VDB_DB_SCRUBBER_H_
