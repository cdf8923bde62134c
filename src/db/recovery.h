#ifndef VDB_DB_RECOVERY_H_
#define VDB_DB_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "db/collection.h"
#include "storage/manifest.h"

namespace vdb {

struct RecoveryOptions {
  /// Data directory (created if missing). Owns MANIFEST, checkpoint-*.vdb
  /// and wal-*.log; nothing else in it is touched.
  std::string dir;
  /// Collection schema; `wal_path` is ignored (the manager routes the WAL
  /// through generation files).
  CollectionOptions collection;
};

/// What Open() found and did.
struct RecoveryReport {
  std::uint64_t generation = 0;  ///< generation recovered from
  std::size_t generations_found = 0;
  std::size_t generations_discarded = 0;  ///< failed CRC / missing files
  std::size_t wal_records_replayed = 0;
  std::size_t torn_bytes_truncated = 0;
  bool used_bak_manifest = false;
  /// Rows indexed anew: segments whose structure the factory's family
  /// cannot load, or every row when no segment came back.
  std::size_t rows_rebuilt = 0;
  bool fresh_start = false;  ///< no manifest: initialized generation 0
  double wall_seconds = 0.0;
};

/// Orchestrates the durability lifecycle of one collection in one data
/// directory (DESIGN.md §8):
///
///   Open()       — restore the newest generation whose checkpoint passes
///                  its CRC (falling back one generation on corruption),
///                  sealed segments included, replay the WAL chain,
///                  truncate a torn tail, attach the newest WAL for
///                  appends, and build the index only when no segment came
///                  back.
///   Checkpoint() — write a new generation's checkpoint, flip the manifest
///                  atomically, rotate the WAL, and garbage-collect all
///                  but the two newest generations.
///
/// Like Collection itself, not thread-safe: quiesce mutations around
/// Checkpoint().
class RecoveryManager {
 public:
  static Result<std::unique_ptr<RecoveryManager>> Open(
      RecoveryOptions opts, RecoveryReport* report = nullptr);

  Collection& collection() { return *collection_; }
  const Collection& collection() const { return *collection_; }
  std::uint64_t generation() const { return manifest_.current; }
  const Manifest& manifest() const { return manifest_; }

  /// Rotates to a new generation. On failure the previous generation is
  /// still intact (the manifest only flips after every new file is
  /// durable).
  Status Checkpoint();

 private:
  explicit RecoveryManager(RecoveryOptions opts) : opts_(std::move(opts)) {}

  std::string PathOf(const std::string& file) const {
    return opts_.dir + "/" + file;
  }
  Status InstallGeneration(std::uint64_t gen);
  void GarbageCollect(const Manifest& next);

  RecoveryOptions opts_;
  Manifest manifest_;
  std::unique_ptr<Collection> collection_;
};

}  // namespace vdb

#endif  // VDB_DB_RECOVERY_H_
