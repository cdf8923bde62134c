#include "index/ivf_sq.h"

#include "core/kmeans.h"
#include "core/topk.h"
#include "exec/trace.h"

namespace vdb {

Status IvfSqIndex::Build(FloatMatrix data,
                         std::span<const VectorId> ids) {
  if (opts_.metric.metric != Metric::kL2) {
    return Status::InvalidArgument("ivf-sq8 supports the L2 metric only");
  }
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  VDB_RETURN_IF_ERROR(BuildCoarse());
  VDB_RETURN_IF_ERROR(sq_.Train(rows_.vectors()));
  codes_.resize(TotalRows() * sq_.code_size());
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    sq_.Encode(vector(i), codes_.data() + std::size_t{i} * sq_.code_size());
  }
  return Status::Ok();
}

Status IvfSqIndex::Add(const float* vec, VectorId id) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  lists_[NearestCentroid(centroids_, vec)].push_back(idx);
  codes_.resize(codes_.size() + sq_.code_size());
  sq_.Encode(vec, codes_.data() + std::size_t{idx} * sq_.code_size());
  return Status::Ok();
}

Status IvfSqIndex::SearchImpl(const float* query, const SearchParams& params,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  const int nprobe = EffectiveNprobe(params);
  auto probe = NearestCentroids(centroids_, query,
                                static_cast<std::size_t>(nprobe));
  if (stats != nullptr) stats->distance_comps += centroids_.rows();

  const std::size_t gather =
      params.rerank ? params.k * opts_.rerank_factor : params.k;
  // Compressed-domain pass keeps internal ids for the re-rank step.
  TopK approx(gather);
  for (std::uint32_t list_id : probe) {
    if (stats != nullptr) ++stats->nodes_visited;
    for (std::uint32_t idx : lists_[list_id]) {
      if (!Admissible(idx, params, stats)) continue;
      float dist = sq_.AdcL2Sq(
          query, codes_.data() + std::size_t{idx} * sq_.code_size());
      if (stats != nullptr) ++stats->code_comps;
      approx.Push(static_cast<VectorId>(idx), dist);
    }
  }
  auto candidates = approx.Take();

  TraceScope rerank_span(params.rerank ? params.trace : nullptr, "rerank");
  rerank_span.Note("candidates", std::to_string(candidates.size()));
  TopK top(params.k);
  for (const auto& cand : candidates) {
    auto idx = static_cast<std::uint32_t>(cand.id);
    float dist = cand.dist;
    if (params.rerank) {
      dist = scorer_.Distance(query, vector(idx));
      if (stats != nullptr) ++stats->distance_comps;
    }
    top.Push(label(idx), dist);
  }
  *out = top.Take();
  return Status::Ok();
}

std::size_t IvfSqIndex::MemoryBytes() const {
  std::size_t bytes =
      rows_.MemoryBytes() + centroids_.ByteSize() + codes_.size();
  for (const auto& list : lists_) bytes += list.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace vdb
