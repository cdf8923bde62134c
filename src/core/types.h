#ifndef VDB_CORE_TYPES_H_
#define VDB_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace vdb {

/// External, stable identifier of an entity/vector in a collection.
using VectorId = std::uint64_t;

/// Sentinel for "no id".
inline constexpr VectorId kInvalidVectorId = ~VectorId{0};

/// Read-only view of one dense float vector.
using VectorView = std::span<const float>;

/// Row-major dense matrix of 32-bit floats. The universal in-memory vector
/// container: a dataset is an (n x dim) FloatMatrix.
class FloatMatrix {
 public:
  FloatMatrix() = default;
  FloatMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  float* row(std::size_t i) { return data_.data() + i * cols_; }
  const float* row(std::size_t i) const { return data_.data() + i * cols_; }
  VectorView row_view(std::size_t i) const { return {row(i), cols_}; }

  float& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  float at(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Appends one row (must have `cols()` elements; first append on an empty
  /// matrix sets the column count).
  void AppendRow(const float* v, std::size_t dim) {
    if (rows_ == 0 && cols_ == 0) cols_ = dim;
    data_.insert(data_.end(), v, v + cols_);
    ++rows_;
  }

  /// Bytes of payload (excluding container overhead).
  std::size_t ByteSize() const { return data_.size() * sizeof(float); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// One search hit: external id plus internal score. The library-wide score
/// convention is **distance, lower is better** (similarities such as inner
/// product and cosine are negated / inverted by the Scorer).
struct Neighbor {
  VectorId id = kInvalidVectorId;
  float dist = 0.0f;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;  // deterministic tie-break
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.dist == b.dist;
  }
};

/// Per-query instrumentation filled by every index/operator. All costs the
/// paper's cost models reason about are observable here.
struct SearchStats {
  std::uint64_t distance_comps = 0;  ///< full-precision distance evaluations
  std::uint64_t code_comps = 0;      ///< compressed-domain (ADC/Hamming) evals
  std::uint64_t nodes_visited = 0;   ///< graph nodes / tree leaves / buckets
  std::uint64_t hops = 0;            ///< graph hops or tree descents
  std::uint64_t io_reads = 0;        ///< disk pages read
  std::uint64_t filter_checks = 0;   ///< predicate / bitset probes

  // Distributed scatter-gather health (ShardedCollection::Knn).
  std::uint64_t shards_failed = 0;   ///< shards that contributed no results
                                     ///< (error, deadline, or tripped breaker)
  std::uint64_t shard_retries = 0;   ///< replica reads retried on the primary
  bool partial = false;              ///< results degraded to healthy shards

  SearchStats& operator+=(const SearchStats& o) {
    distance_comps += o.distance_comps;
    code_comps += o.code_comps;
    nodes_visited += o.nodes_visited;
    hops += o.hops;
    io_reads += o.io_reads;
    filter_checks += o.filter_checks;
    shards_failed += o.shards_failed;
    shard_retries += o.shard_retries;
    partial = partial || o.partial;
    return *this;
  }
};

/// Dynamic bitset over dense ids (used for attribute bitmasks, visited
/// sets, and delete maps).
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t n, bool value = false)
      : size_(n), words_((n + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    Trim();
  }

  std::size_t size() const { return size_; }

  /// Grows or shrinks to `n` bits; bits added by growing read clear.
  void Resize(std::size_t n) {
    size_ = n;
    words_.resize((n + 63) / 64, 0);
    Trim();
  }

  bool Test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(std::size_t i) { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  void Clear(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void ClearAll() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  Bitset& And(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size() && i < o.words_.size(); ++i)
      words_[i] &= o.words_[i];
    return *this;
  }
  Bitset& Or(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size() && i < o.words_.size(); ++i)
      words_[i] |= o.words_[i];
    return *this;
  }
  Bitset& Not() {
    for (auto& w : words_) w = ~w;
    Trim();
    return *this;
  }

 private:
  void Trim() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << (size_ % 64)) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Predicate pushed into an index scan. `Matches` must be cheap and
/// thread-safe; implementations wrap attribute bitmasks (the block-first
/// bitmask technique of §2.3).
class IdFilter {
 public:
  virtual ~IdFilter() = default;
  virtual bool Matches(VectorId id) const = 0;
};

}  // namespace vdb

#endif  // VDB_CORE_TYPES_H_
