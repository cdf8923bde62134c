#ifndef VDB_STORAGE_MANIFEST_H_
#define VDB_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace vdb {

/// Shared on-disk container magics of the recovery subsystem. Every file
/// uses the common layout [magic u32][payload][crc32 u32 of payload], so
/// the scrubber can verify any of them generically.
inline constexpr std::uint32_t kManifestMagic = 0x564D4653;    // "VMFS"
inline constexpr std::uint32_t kCheckpointMagic = 0x5643484B;  // "VCHK"

/// One retained generation of a data directory: the checkpoint holding
/// the state at rotation time (its sealed segments included) and the WAL
/// receiving everything after it. File names are relative to the data
/// directory.
struct ManifestGeneration {
  std::uint64_t gen = 0;
  std::string checkpoint_file;
  std::string wal_file;

  static std::string CheckpointName(std::uint64_t gen);
  static std::string WalName(std::uint64_t gen);
};

/// The root of crash recovery: a tiny CRC-guarded file naming the current
/// generation and every retained older one. It is only ever replaced
/// atomically (temp file + fsync + `rename` + parent-dir fsync), with the
/// previous manifest kept at `MANIFEST.bak`, so a reader always finds a
/// consistent generation list no matter where a crash landed.
struct Manifest {
  std::uint64_t current = 0;
  /// Ascending by `gen`; the last entry is the current generation.
  std::vector<ManifestGeneration> generations;

  static std::string PathIn(const std::string& dir);
  static std::string BakPathIn(const std::string& dir);

  /// Loads `dir`'s manifest, falling back to `MANIFEST.bak` when the
  /// current file is missing or fails its CRC. `used_bak` (may be null)
  /// reports whether the fallback was taken.
  static Result<Manifest> Load(const std::string& dir,
                               bool* used_bak = nullptr);
  /// Loads one specific manifest file (the scrubber checks both copies).
  static Result<Manifest> LoadFile(const std::string& path);

  /// Atomic flip protocol: rename current -> .bak (keeping a valid copy
  /// live at all times a crash could observe), then atomically install
  /// the new manifest. Crash-sites `crash.manifest.bak` / `.flipped`.
  Status Save(const std::string& dir) const;

  const ManifestGeneration* Find(std::uint64_t gen) const;
  const ManifestGeneration* Current() const { return Find(current); }
};

}  // namespace vdb

#endif  // VDB_STORAGE_MANIFEST_H_
