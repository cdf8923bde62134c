#ifndef VDB_STORAGE_WAL_H_
#define VDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "storage/attribute_store.h"

namespace vdb {

/// Minimal append-only write-ahead log for a vector collection: insert and
/// delete records, each CRC-guarded. Replay stops cleanly at the first
/// torn/corrupt record (crash-consistent tail). This is the durability leg
/// of the storage manager; the collection's growing segment is the
/// in-memory buffer.
class Wal {
 public:
  /// Replay callbacks. Invoked in log order.
  class Visitor {
   public:
    virtual ~Visitor() = default;
    virtual void OnInsert(VectorId id, std::span<const float> vec,
                          const std::vector<AttrBinding>& attrs) = 0;
    virtual void OnDelete(VectorId id) = 0;
  };

  /// Opens (creating if needed) a log for appending.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  Status AppendInsert(VectorId id, std::span<const float> vec,
                      const std::vector<AttrBinding>& attrs);
  Status AppendDelete(VectorId id);
  Status Sync();

  /// Replays `path`, stopping at the first corrupt record; reports how many
  /// records were applied via `applied` and the byte offset of the end of
  /// the last valid record via `valid_bytes` (either may be null). A null
  /// `visitor` walks the log without applying it (the scrubber's CRC pass).
  static Status Replay(const std::string& path, Visitor* visitor,
                       std::size_t* applied = nullptr,
                       std::size_t* valid_bytes = nullptr);

  /// Truncates `path` to `valid_bytes` and fsyncs it — run after Replay
  /// stopped at a torn tail, *before* reopening for append, so new records
  /// never land after garbage (where the next replay could not reach them).
  static Status TruncateTo(const std::string& path, std::size_t valid_bytes);

  /// fsyncs the directory containing `path` (durability of the directory
  /// entry itself — create/rename is not durable until the parent is).
  static Status SyncDirOf(const std::string& path);

  /// CRC32 (polynomial 0xEDB88320) of a byte buffer — exposed for tests.
  static std::uint32_t Crc32(const std::uint8_t* data, std::size_t len);

 private:
  explicit Wal(int fd) : fd_(fd) {}
  Status AppendRecord(std::uint8_t type, const std::vector<std::uint8_t>& body);

  int fd_;
};

}  // namespace vdb

#endif  // VDB_STORAGE_WAL_H_
