#ifndef VDB_STORAGE_LSM_STORE_H_
#define VDB_STORAGE_LSM_STORE_H_

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "index/index.h"
#include "storage/vector_store.h"

namespace vdb {

/// Creates an empty index to build over a sealed segment.
using IndexFactory = std::function<std::unique_ptr<VectorIndex>()>;

struct LsmOptions {
  MetricSpec metric = MetricSpec::L2();
  /// Memtable rows before an automatic flush into a sealed segment.
  std::size_t memtable_limit = 2048;
  /// Sealed segments that trigger an automatic full compaction.
  std::size_t compact_at_segments = 6;
  IndexFactory factory;  ///< required
};

/// Out-of-place update store (paper §2.3(3) and the Milvus/Manu LSM
/// pattern): writes land in an append-only, brute-force-searchable
/// memtable; a full memtable is sealed into an immutable segment with its
/// own freshly built index; deletes are tombstones honored by every
/// search; compaction merges all segments and rebuilds one index. Search
/// is a scatter-gather over memtable + segments. This keeps write
/// throughput high for indexes that are expensive to update in place.
class LsmVectorStore {
 public:
  /// `opts.factory` must be set.
  static Result<std::unique_ptr<LsmVectorStore>> Create(std::size_t dim,
                                                        LsmOptions opts);

  Status Insert(VectorId id, const float* vec);
  Status Delete(VectorId id);
  bool Contains(VectorId id) const;

  /// k-NN over memtable + all segments, excluding tombstoned ids.
  Status Search(const float* query, const SearchParams& params,
                std::vector<Neighbor>* out, SearchStats* stats = nullptr) const;

  /// Seals the current memtable into a segment (no-op when empty).
  Status Flush();
  /// Merges every segment (and the memtable) into one fresh segment.
  Status Compact();

  std::size_t live_count() const { return live_ids_.size(); }
  std::size_t memtable_rows() const { return memtable_.live_count(); }
  std::size_t num_segments() const { return segments_.size(); }
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t compactions() const { return compactions_; }
  /// Resident bytes: the memtable, every segment's rows, ids and index,
  /// and the live-id and tombstone sets (one VectorId per member).
  std::size_t MemoryBytes() const;

  /// Test-only: the index of sealed segment `i` (0-based, creation order).
  const VectorIndex* SegmentIndexForTest(std::size_t i) const {
    return segments_[i].index.get();
  }

 private:
  LsmVectorStore(std::size_t dim, LsmOptions opts)
      : dim_(dim), opts_(std::move(opts)), memtable_(dim) {}

  struct Segment {
    FloatMatrix data;            ///< kept for compaction rebuilds
    std::vector<VectorId> ids;
    std::unique_ptr<VectorIndex> index;
  };

  Status BuildSegment(FloatMatrix&& data, std::vector<VectorId>&& ids);

  std::size_t dim_;
  LsmOptions opts_;
  Scorer scorer_;
  VectorStore memtable_;
  std::vector<Segment> segments_;
  std::unordered_set<VectorId> live_ids_;
  std::unordered_set<VectorId> tombstones_;  ///< deleted after sealing
  std::uint64_t flushes_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace vdb

#endif  // VDB_STORAGE_LSM_STORE_H_
