#ifndef VDB_EXEC_EXECUTOR_H_
#define VDB_EXEC_EXECUTOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/distance.h"
#include "exec/plan.h"
#include "exec/predicate.h"
#include "index/index.h"
#include "storage/attribute_store.h"
#include "storage/vector_store.h"

namespace vdb {

/// One sealed segment (§2.3(3), the Milvus/Manu layout): an index over a
/// fixed set of a collection's rows, all with one partition key. With a
/// partition column a partition is the group of segments of one key
/// (offline blocking, §2.3(1)); without one every key is 0.
struct Segment {
  std::unique_ptr<VectorIndex> index;
  /// The partition column's value in every row; none for rows without
  /// attributes (multi-vector members), which no predicate matches.
  std::optional<std::int64_t> key = 0;
};

/// Read-only handles to everything a hybrid plan may touch. Each row
/// lives in exactly one place: a sealed segment's index or the growing
/// rows. No segments leaves brute force as the only plan.
struct CollectionView {
  /// The growing segment: rows in no sealed segment, which every read
  /// brute-forces. Null when there are none.
  const VectorStore* growing = nullptr;
  const AttributeStore* attrs = nullptr;      ///< required for predicates
  std::span<const Segment> segments;          ///< the sealed segments
  const Scorer* scorer = nullptr;             ///< required
  /// The int64 column the segments' keys come from; empty: unpartitioned.
  std::string_view partition_column;
};

/// True when `pred` is `partition_column = <int>` on a partitioned view:
/// the partition-pruned plan can serve it, searching only the segments
/// whose key is `*key`.
bool PrunedKey(const CollectionView& view, const Predicate& pred,
               std::int64_t* key);

/// Live rows of the sealed segments and the growing rows.
std::size_t LiveRows(const CollectionView& view);

/// Calls fn(id, vector) for every live row of `view` in the collection's
/// row order: each sealed segment's rows, oldest segment first, then the
/// growing rows. Disk-resident segments read their pages (counted in
/// `stats->io_reads`).
template <typename Fn>
Status ForEachLiveRow(const CollectionView& view, Fn&& fn,
                      SearchStats* stats) {
  for (const Segment& seg : view.segments) {
    VDB_RETURN_IF_ERROR(ForEachLiveRow(*seg.index, fn, stats));
  }
  if (view.growing != nullptr) view.growing->ForEachLive(fn);
  return Status::Ok();
}

/// Executes a chosen hybrid plan against a collection snapshot — the
/// "Query Executor" box of Figure 1 specialized to predicated k-NN.
class HybridExecutor {
 public:
  explicit HybridExecutor(const CollectionView& view) : view_(view) {}

  /// k-NN under `params` (including its optional id filter) over every
  /// sealed segment and the growing rows.
  Status Search(const float* query, const SearchParams& params,
                std::vector<Neighbor>* out, SearchStats* stats) const;

  /// Runs `plan` for `query` under `pred`. `params.filter/filter_mode` are
  /// overwritten by the plan's strategy.
  Status Execute(const HybridPlan& plan, const Predicate& pred,
                 const float* query, const SearchParams& params,
                 std::vector<Neighbor>* out, ExecStats* stats = nullptr) const;

 private:
  Status BruteForce(const Predicate& pred, const float* query,
                    const SearchParams& params, std::vector<Neighbor>* out,
                    ExecStats* stats) const;

  /// The one read loop: `search(segment, &part)` on every sealed segment,
  /// the growing rows that `growing_filter` admits (null: all) scored
  /// exactly, and the parts merged into the top `params.k`.
  template <typename SearchSegment>
  Status SearchSegments(const float* query, const SearchParams& params,
                        const IdFilter* growing_filter,
                        SearchSegment&& search, std::vector<Neighbor>* out,
                        SearchStats* stats) const;

  CollectionView view_;
};

}  // namespace vdb

#endif  // VDB_EXEC_EXECUTOR_H_
