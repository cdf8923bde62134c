#ifndef VDB_STORAGE_ATTRIBUTE_STORE_H_
#define VDB_STORAGE_ATTRIBUTE_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "core/types.h"

namespace vdb {

/// Scalar attribute value (hybrid queries pair these with vectors, §2.1).
using AttrValue = std::variant<std::int64_t, double, std::string>;

enum class AttrType { kInt64 = 0, kDouble = 1, kString = 2 };

inline AttrType TypeOf(const AttrValue& v) {
  return static_cast<AttrType>(v.index());
}

/// One named attribute of one entity.
struct AttrBinding {
  std::string column;
  AttrValue value;
};

/// Per-column statistics maintained for selectivity estimation (the input
/// to rule-based and cost-based hybrid plan selection, §2.3).
struct ColumnStats {
  std::size_t non_default_rows = 0;
  double min = 0.0;   ///< numeric columns
  double max = 0.0;
  std::size_t approx_distinct = 0;
  /// Equi-width histogram over [min, max] (numeric columns, 16 buckets).
  std::vector<std::size_t> histogram;

  bool operator==(const ColumnStats&) const = default;
};

/// Typed attribute columns aligned with a vector collection's rows. Rows
/// are addressed by external VectorId (dense ids recommended). Supports
/// bitmask construction for block-first filtering.
///
/// Mutations (`AddColumn`, `PutRow`, `Load`) need exclusive access, like
/// any container. `const` members may run concurrently with each other:
/// the statistics cache they fill is guarded by its own mutex.
class AttributeStore {
 public:
  Status AddColumn(const std::string& name, AttrType type);
  Result<AttrType> ColumnType(const std::string& name) const;

  /// Sets attributes for `id` (any column not bound keeps its default:
  /// 0 / 0.0 / ""). Extends all columns to cover `id`.
  Status PutRow(VectorId id, const std::vector<AttrBinding>& attrs);

  Result<AttrValue> Get(VectorId id, const std::string& column) const;

  /// Number of rows (max id set + 1).
  std::size_t NumRows() const { return num_rows_; }

  /// Statistics for `column` (histograms, distincts). Computed on first
  /// use after a mutation and cached until the next one, so repeated
  /// selectivity estimates cost a map lookup, not a column scan.
  Result<ColumnStats> ComputeStats(const std::string& column) const;

  /// Number of column scans `ComputeStats` has made (cache misses).
  std::size_t StatsScans() const;

  /// Raw column access for predicate evaluation.
  const std::vector<std::int64_t>* Int64Column(const std::string& name) const;
  const std::vector<double>* DoubleColumn(const std::string& name) const;
  const std::vector<std::string>* StringColumn(const std::string& name) const;

  /// Serialization into/from a checkpoint container (schema + all rows).
  void Save(class BinaryWriter* writer) const;
  Status Load(class BinaryReader* reader);

 private:
  struct Column {
    AttrType type;
    std::vector<std::int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
    void Resize(std::size_t n) {
      switch (type) {
        case AttrType::kInt64: i64.resize(n, 0); break;
        case AttrType::kDouble: f64.resize(n, 0.0); break;
        case AttrType::kString: str.resize(n); break;
      }
    }
  };

  struct CachedStats {
    std::uint64_t epoch = 0;  ///< `epoch_` the stats were computed at
    ColumnStats stats;
  };

  /// Scans `col` (the uncached half of ComputeStats).
  ColumnStats ScanStats(const Column& col) const;

  std::unordered_map<std::string, Column> columns_;
  std::size_t num_rows_ = 0;
  /// Bumped by every mutation; cache entries from older epochs are stale.
  /// Written only under exclusive access, so readers need no lock for it.
  std::uint64_t epoch_ = 0;

  mutable Mutex stats_mu_;
  mutable std::unordered_map<std::string, CachedStats> stats_cache_
      VDB_GUARDED_BY(stats_mu_);
  mutable std::size_t stats_scans_ VDB_GUARDED_BY(stats_mu_) = 0;
};

}  // namespace vdb

#endif  // VDB_STORAGE_ATTRIBUTE_STORE_H_
