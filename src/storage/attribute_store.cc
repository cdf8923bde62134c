#include "storage/attribute_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "core/failpoint.h"
#include "storage/serializer.h"

namespace vdb {

namespace {

/// Bucket of `v` in the 16-bucket equi-width histogram over [min, max].
/// The position is range-checked before the integer cast, which is
/// undefined for NaN and out-of-range doubles: NaN, and any position an
/// infinite range leaves undefined, land in bucket 0; `max` (+inf
/// included) lands in bucket 15. Finite columns bucket exactly as
/// truncating (v - min) / width would.
std::size_t HistogramBucket(double v, double min, double max, double width) {
  if (!(width > 0.0)) return 0;
  if (v >= max) return 15;
  double pos = (v - min) / width;
  if (!(pos > 0.0)) return 0;
  return pos < 15.0 ? static_cast<std::size_t>(pos) : 15;
}

}  // namespace

Status AttributeStore::AddColumn(const std::string& name, AttrType type) {
  if (columns_.contains(name)) {
    return Status::AlreadyExists("column exists: " + name);
  }
  Column col;
  col.type = type;
  col.Resize(num_rows_);
  columns_.emplace(name, std::move(col));
  ++epoch_;
  return Status::Ok();
}

Result<AttrType> AttributeStore::ColumnType(const std::string& name) const {
  auto it = columns_.find(name);
  if (it == columns_.end()) return Status::NotFound("no column: " + name);
  return it->second.type;
}

Status AttributeStore::PutRow(VectorId id,
                              const std::vector<AttrBinding>& attrs) {
  ++epoch_;  // before any write: a failed PutRow may have changed rows
  std::size_t row = static_cast<std::size_t>(id);
  if (row >= num_rows_) {
    num_rows_ = row + 1;
    for (auto& [name, col] : columns_) col.Resize(num_rows_);
  }
  for (const auto& binding : attrs) {
    auto it = columns_.find(binding.column);
    if (it == columns_.end()) {
      return Status::NotFound("no column: " + binding.column);
    }
    Column& col = it->second;
    if (TypeOf(binding.value) != col.type) {
      return Status::InvalidArgument("type mismatch for " + binding.column);
    }
    switch (col.type) {
      case AttrType::kInt64:
        col.i64[row] = std::get<std::int64_t>(binding.value);
        break;
      case AttrType::kDouble:
        col.f64[row] = std::get<double>(binding.value);
        break;
      case AttrType::kString:
        col.str[row] = std::get<std::string>(binding.value);
        break;
    }
  }
  return Status::Ok();
}

Result<AttrValue> AttributeStore::Get(VectorId id,
                                      const std::string& column) const {
  auto it = columns_.find(column);
  if (it == columns_.end()) return Status::NotFound("no column: " + column);
  std::size_t row = static_cast<std::size_t>(id);
  if (row >= num_rows_) return Status::OutOfRange("row out of range");
  const Column& col = it->second;
  switch (col.type) {
    case AttrType::kInt64: return AttrValue(col.i64[row]);
    case AttrType::kDouble: return AttrValue(col.f64[row]);
    case AttrType::kString: return AttrValue(col.str[row]);
  }
  return Status::Internal("bad column type");
}

Result<ColumnStats> AttributeStore::ComputeStats(
    const std::string& column) const {
  auto it = columns_.find(column);
  if (it == columns_.end()) return Status::NotFound("no column: " + column);
  // Every column was created by a mutation, so epoch_ >= 1 here and a
  // fresh entry (epoch 0) is always stale. Holding the lock across the
  // scan makes concurrent cold readers wait for one scan, not repeat it.
  MutexLock lock(stats_mu_);
  CachedStats& cached = stats_cache_[column];
  if (cached.epoch != epoch_) {
    cached.stats = ScanStats(it->second);
    cached.epoch = epoch_;
    ++stats_scans_;
  }
  return cached.stats;
}

std::size_t AttributeStore::StatsScans() const {
  MutexLock lock(stats_mu_);
  return stats_scans_;
}

ColumnStats AttributeStore::ScanStats(const Column& col) const {
  ColumnStats stats;
  auto numeric = [&](auto getter) {
    stats.min = std::numeric_limits<double>::max();
    stats.max = std::numeric_limits<double>::lowest();
    for (std::size_t r = 0; r < num_rows_; ++r) {
      double v = getter(r);
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    if (num_rows_ == 0) {
      stats.min = stats.max = 0.0;
    }
    stats.histogram.assign(16, 0);
    double width = (stats.max - stats.min) / 16.0;
    std::unordered_set<double> distinct;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      double v = getter(r);
      ++stats.histogram[HistogramBucket(v, stats.min, stats.max, width)];
      if (distinct.size() < 10000) distinct.insert(v);
    }
    stats.approx_distinct = distinct.size();
  };

  switch (col.type) {
    case AttrType::kInt64:
      numeric([&](std::size_t r) { return static_cast<double>(col.i64[r]); });
      break;
    case AttrType::kDouble:
      numeric([&](std::size_t r) { return col.f64[r]; });
      break;
    case AttrType::kString: {
      std::unordered_set<std::string> distinct;
      for (std::size_t r = 0; r < num_rows_; ++r) {
        if (!col.str[r].empty()) ++stats.non_default_rows;
        if (distinct.size() < 10000) distinct.insert(col.str[r]);
      }
      stats.approx_distinct = distinct.size();
      break;
    }
  }
  return stats;
}

const std::vector<std::int64_t>* AttributeStore::Int64Column(
    const std::string& name) const {
  auto it = columns_.find(name);
  return it != columns_.end() && it->second.type == AttrType::kInt64
             ? &it->second.i64
             : nullptr;
}

const std::vector<double>* AttributeStore::DoubleColumn(
    const std::string& name) const {
  auto it = columns_.find(name);
  return it != columns_.end() && it->second.type == AttrType::kDouble
             ? &it->second.f64
             : nullptr;
}

const std::vector<std::string>* AttributeStore::StringColumn(
    const std::string& name) const {
  auto it = columns_.find(name);
  return it != columns_.end() && it->second.type == AttrType::kString
             ? &it->second.str
             : nullptr;
}

void AttributeStore::Save(BinaryWriter* writer) const {
  writer->U64(num_rows_);
  writer->U64(columns_.size());
  for (const auto& [name, col] : columns_) {
    writer->U32(static_cast<std::uint32_t>(name.size()));
    writer->Bytes(name.data(), name.size());
    writer->U8(static_cast<std::uint8_t>(col.type));
    switch (col.type) {
      case AttrType::kInt64:
        writer->Bytes(col.i64.data(), col.i64.size() * sizeof(std::int64_t));
        break;
      case AttrType::kDouble:
        writer->Bytes(col.f64.data(), col.f64.size() * sizeof(double));
        break;
      case AttrType::kString:
        for (const auto& s : col.str) {
          writer->U32(static_cast<std::uint32_t>(s.size()));
          writer->Bytes(s.data(), s.size());
        }
        break;
    }
  }
}

Status AttributeStore::Load(BinaryReader* reader) {
  if (FailpointFires("attribute_store.load.corrupt")) {
    return Status::Corruption("injected failure: attribute_store.load.corrupt");
  }
  ++epoch_;
  columns_.clear();
  VDB_ASSIGN_OR_RETURN(num_rows_, reader->U64());
  VDB_ASSIGN_OR_RETURN(std::uint64_t ncols, reader->U64());
  std::vector<std::uint8_t> scratch;
  for (std::uint64_t c = 0; c < ncols; ++c) {
    VDB_ASSIGN_OR_RETURN(std::uint32_t name_len, reader->U32());
    if (name_len > reader->Remaining()) {
      return Status::Corruption("column name overrun");
    }
    std::string name(name_len, '\0');
    {
      // Read the raw name bytes via repeated U8 (small strings).
      for (std::uint32_t i = 0; i < name_len; ++i) {
        VDB_ASSIGN_OR_RETURN(std::uint8_t byte, reader->U8());
        name[i] = static_cast<char>(byte);
      }
    }
    VDB_ASSIGN_OR_RETURN(std::uint8_t type_tag, reader->U8());
    if (type_tag > 2) return Status::Corruption("bad column type");
    Column col;
    col.type = static_cast<AttrType>(type_tag);
    switch (col.type) {
      case AttrType::kInt64: {
        if (num_rows_ > reader->Remaining() / 8) {
          return Status::Corruption("column overrun");
        }
        col.i64.resize(num_rows_);
        for (std::size_t r = 0; r < num_rows_; ++r) {
          VDB_ASSIGN_OR_RETURN(std::uint64_t v, reader->U64());
          col.i64[r] = static_cast<std::int64_t>(v);
        }
        break;
      }
      case AttrType::kDouble: {
        if (num_rows_ > reader->Remaining() / 8) {
          return Status::Corruption("column overrun");
        }
        col.f64.resize(num_rows_);
        for (std::size_t r = 0; r < num_rows_; ++r) {
          VDB_ASSIGN_OR_RETURN(std::uint64_t bits, reader->U64());
          double d;
          std::memcpy(&d, &bits, 8);
          col.f64[r] = d;
        }
        break;
      }
      case AttrType::kString: {
        col.str.resize(num_rows_);
        for (std::size_t r = 0; r < num_rows_; ++r) {
          VDB_ASSIGN_OR_RETURN(std::uint32_t len, reader->U32());
          if (len > reader->Remaining()) {
            return Status::Corruption("string overrun");
          }
          std::string s(len, '\0');
          for (std::uint32_t i = 0; i < len; ++i) {
            VDB_ASSIGN_OR_RETURN(std::uint8_t byte, reader->U8());
            s[i] = static_cast<char>(byte);
          }
          col.str[r] = std::move(s);
        }
        break;
      }
    }
    columns_.emplace(std::move(name), std::move(col));
  }
  return Status::Ok();
}

}  // namespace vdb
