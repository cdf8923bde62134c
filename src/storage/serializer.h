#ifndef VDB_STORAGE_SERIALIZER_H_
#define VDB_STORAGE_SERIALIZER_H_

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/distance.h"
#include "core/failpoint.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/posix_io.h"
#include "storage/vector_store.h"
#include "storage/wal.h"

namespace vdb {

/// Little binary writer for index/collection persistence. Layout:
/// [magic u32][payload...][crc32 u32 of payload]. All integers
/// little-endian fixed width; matrices as rows x cols x float payload.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::uint32_t magic) { U32(magic); }

  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
  }
  void F32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    U32(bits);
  }
  void Bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + len);
  }
  void Matrix(const FloatMatrix& m) {
    U64(m.rows());
    U64(m.cols());
    Bytes(m.data(), m.ByteSize());
  }
  void U32Vector(const std::vector<std::uint32_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(std::uint32_t));
  }
  void U64Vector(const std::vector<std::uint64_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(std::uint64_t));
  }
  /// Writes what `fill()` appends as one length-prefixed block, so a
  /// reader can skip a block it cannot decode (BinaryReader::Block).
  template <typename Fn>
  void Block(Fn&& fill) {
    const std::size_t at = bytes_.size();
    U64(0);
    fill();
    const std::uint64_t len = bytes_.size() - at - 8;
    for (int i = 0; i < 8; ++i) bytes_[at + i] = (len >> (8 * i)) & 0xff;
  }

  /// Atomic, durable install: the full container goes to `<path>.tmp`,
  /// is fsynced, then renamed over `path` and the parent directory is
  /// fsynced. A crash at any point leaves either the old file or the new
  /// one — never a torn `path` (a naive in-place truncate-and-write would
  /// destroy the previous good checkpoint on a mid-write crash).
  Status WriteTo(const std::string& path) const {
    // Payload CRC excludes the magic prefix (first 4 bytes).
    std::uint32_t crc = Wal::Crc32(bytes_.data() + 4, bytes_.size() - 4);
    std::vector<std::uint8_t> full = bytes_;
    for (int i = 0; i < 4; ++i) full.push_back((crc >> (8 * i)) & 0xff);

    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      return Status::IoError("open for write: " + tmp + ": " +
                             std::strerror(errno));
    }
    Status io = posix_io::WriteFully(fd, full.data(), full.size(),
                                     ("write " + tmp).c_str());
    if (io.ok()) io = posix_io::SyncFd(fd, ("fsync " + tmp).c_str());
    if (!io.ok()) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return io;
    }
    ::close(fd);
    FailpointCrashSite("crash.serializer.tmp_written");
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      Status st = Status::IoError("rename " + tmp + " -> " + path + ": " +
                                  std::strerror(errno));
      ::unlink(tmp.c_str());
      return st;
    }
    FailpointCrashSite("crash.serializer.renamed");
    return Wal::SyncDirOf(path);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Matching reader; validates magic and CRC up front.
class BinaryReader {
 public:
  static Result<BinaryReader> Open(const std::string& path,
                                   std::uint32_t magic) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("open for read: " + path);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    if (bytes.size() < 8) return Status::Corruption("file too short");
    BinaryReader reader;
    reader.bytes_ = std::move(bytes);
    std::uint32_t found_magic;
    std::memcpy(&found_magic, reader.bytes_.data(), 4);
    if (found_magic != magic) return Status::Corruption("bad magic");
    std::uint32_t stored_crc;
    std::memcpy(&stored_crc, reader.bytes_.data() + reader.bytes_.size() - 4,
                4);
    std::uint32_t crc =
        Wal::Crc32(reader.bytes_.data() + 4, reader.bytes_.size() - 8);
    if (crc != stored_crc) return Status::Corruption("crc mismatch");
    reader.at_ = 4;
    reader.end_ = reader.bytes_.size() - 4;
    return reader;
  }

  Result<std::uint8_t> U8() {
    std::uint8_t v = 0;
    VDB_RETURN_IF_ERROR(Take(&v, 1));
    return v;
  }
  Result<std::uint32_t> U32() {
    std::uint8_t raw[4] = {};
    VDB_RETURN_IF_ERROR(Take(raw, 4));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(raw[i]) << (8 * i);
    return v;
  }
  Result<std::uint64_t> U64() {
    std::uint8_t raw[8] = {};
    VDB_RETURN_IF_ERROR(Take(raw, 8));
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(raw[i]) << (8 * i);
    return v;
  }
  Result<float> F32() {
    VDB_ASSIGN_OR_RETURN(std::uint32_t bits, U32());
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  Result<FloatMatrix> Matrix() {
    VDB_ASSIGN_OR_RETURN(std::uint64_t rows, U64());
    VDB_ASSIGN_OR_RETURN(std::uint64_t cols, U64());
    // Divided, not multiplied: a corrupt count must not wrap past the check.
    if (cols > Remaining() / 4 || (cols > 0 && rows > Remaining() / 4 / cols)) {
      return Status::Corruption("matrix overruns file");
    }
    FloatMatrix m(rows, cols);
    VDB_RETURN_IF_ERROR(Take(m.data(), rows * cols * 4));
    return m;
  }
  Result<std::vector<std::uint32_t>> U32Vector() {
    VDB_ASSIGN_OR_RETURN(std::uint64_t n, U64());
    if (n > Remaining() / 4) return Status::Corruption("vector overruns file");
    std::vector<std::uint32_t> v(n);
    VDB_RETURN_IF_ERROR(Take(v.data(), n * 4));
    return v;
  }
  Result<std::vector<std::uint64_t>> U64Vector() {
    VDB_ASSIGN_OR_RETURN(std::uint64_t n, U64());
    if (n > Remaining() / 8) return Status::Corruption("vector overruns file");
    std::vector<std::uint64_t> v(n);
    VDB_RETURN_IF_ERROR(Take(v.data(), n * 8));
    return v;
  }

  /// A reader over the next block written by BinaryWriter::Block; this
  /// reader moves past it.
  Result<BinaryReader> Block() {
    VDB_ASSIGN_OR_RETURN(std::uint64_t len, U64());
    if (len > Remaining()) return Status::Corruption("block overruns file");
    BinaryReader block;
    block.bytes_.assign(bytes_.begin() + at_, bytes_.begin() + at_ + len);
    block.end_ = len;
    at_ += len;
    return block;
  }

  std::size_t Remaining() const { return end_ - at_; }

 private:
  Status Take(void* out, std::size_t n) {
    if (at_ + n > end_) return Status::Corruption("unexpected end of file");
    if (n == 0) return Status::Ok();  // empty payloads hand us data()==null
    std::memcpy(out, bytes_.data() + at_, n);
    at_ += n;
    return Status::Ok();
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t at_ = 0;
  std::size_t end_ = 0;
};

/// The row block of an index file or a checkpoint segment: the
/// vectors, their labels, then the tombstoned rows (none by default).
inline void WriteRowBlock(BinaryWriter* w, const FloatMatrix& vectors,
                          const std::vector<std::uint64_t>& labels,
                          const std::vector<std::uint32_t>& deleted = {}) {
  w->Matrix(vectors);
  w->U64Vector(labels);
  w->U32Vector(deleted);
}
inline void WriteRowBlock(BinaryWriter* w, const VectorStore& rows) {
  WriteRowBlock(w, rows.vectors(), rows.ids().labels(),
                rows.ids().DeletedRows());
}

/// Reads a block written by WriteRowBlock into `*rows`. A live row must be
/// the newest row of its label (RowIds' re-add rule), so no label is live
/// twice.
inline Status ReadRowBlock(BinaryReader* r, VectorStore* rows) {
  VDB_ASSIGN_OR_RETURN(FloatMatrix data, r->Matrix());
  VDB_ASSIGN_OR_RETURN(std::vector<std::uint64_t> labels, r->U64Vector());
  if (labels.size() != data.rows()) {
    return Status::Corruption("labels/rows mismatch");
  }
  VDB_ASSIGN_OR_RETURN(std::vector<std::uint32_t> deleted, r->U32Vector());
  rows->Reset(std::move(data), labels);
  for (std::uint32_t row : deleted) {
    if (row >= rows->total_rows()) return Status::Corruption("bad tombstone");
    VDB_RETURN_IF_ERROR(rows->DeleteRow(row));
  }
  const RowIds& ids = rows->ids();
  for (std::uint32_t row = 0; row < ids.rows(); ++row) {
    if (!ids.IsDeleted(row) && ids.RowOf(ids.label(row)) != row) {
      return Status::Corruption("label live in two rows");
    }
  }
  return Status::Ok();
}

namespace serialize_detail {
inline constexpr std::uint8_t kMetricTagMax = 5;
}  // namespace serialize_detail

/// MetricSpec round-trip (shared by every index's Save/Load).
inline void WriteMetricSpec(BinaryWriter* w, const MetricSpec& spec) {
  w->U8(static_cast<std::uint8_t>(spec.metric));
  w->F32(spec.minkowski_p);
  w->U64(spec.mahalanobis_l.size());
  w->Bytes(spec.mahalanobis_l.data(),
           spec.mahalanobis_l.size() * sizeof(float));
}

inline Result<MetricSpec> ReadMetricSpec(BinaryReader* r) {
  MetricSpec spec;
  VDB_ASSIGN_OR_RETURN(std::uint8_t tag, r->U8());
  if (tag > serialize_detail::kMetricTagMax) {
    return Status::Corruption("bad metric tag");
  }
  spec.metric = static_cast<Metric>(tag);
  VDB_ASSIGN_OR_RETURN(spec.minkowski_p, r->F32());
  VDB_ASSIGN_OR_RETURN(std::uint64_t n, r->U64());
  if (n > r->Remaining() / 4) return Status::Corruption("mahalanobis overrun");
  spec.mahalanobis_l.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    VDB_ASSIGN_OR_RETURN(spec.mahalanobis_l[i], r->F32());
  }
  return spec;
}

}  // namespace vdb

#endif  // VDB_STORAGE_SERIALIZER_H_
