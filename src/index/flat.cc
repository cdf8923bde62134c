#include "index/flat.h"

#include "core/topk.h"

namespace vdb {

Status FlatIndex::Build(FloatMatrix data,
                        std::span<const VectorId> ids) {
  return InitBase(std::move(data), ids, metric_);
}

Status FlatIndex::Add(const float* vec, VectorId id) {
  return AddBase(vec, id).status();
}

Status FlatIndex::SearchImpl(const float* query, const SearchParams& params,
                             std::vector<Neighbor>* out,
                             SearchStats* stats) const {
  TopK top(params.k);
  const std::size_t n = TotalRows();
  for (std::uint32_t i = 0; i < n; ++i) {
    // Block-first: skip blocked rows before paying for the distance.
    // Visit-first on a scan degenerates to the same check ordering.
    if (!Admissible(i, params, stats)) continue;
    float dist = scorer_.Distance(query, vector(i));
    if (stats != nullptr) ++stats->distance_comps;
    top.Push(label(i), dist);
  }
  *out = top.Take();
  return Status::Ok();
}

Status FlatIndex::RangeSearch(const float* query, float radius,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  const std::size_t n = TotalRows();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (IsDeleted(i)) continue;
    float dist = scorer_.Distance(query, vector(i));
    if (stats != nullptr) ++stats->distance_comps;
    if (dist <= radius) out->push_back({label(i), dist});
  }
  std::sort(out->begin(), out->end());
  return Status::Ok();
}

}  // namespace vdb
