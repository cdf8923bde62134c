#include "index/ivf_pq.h"

#include <algorithm>

#include "core/kmeans.h"
#include "core/topk.h"
#include "exec/trace.h"
#include "storage/serializer.h"

namespace vdb {

void IvfPqIndex::ToCodeSpace(const float* x, float* out) const {
  if (opq_ != nullptr) {
    opq_->RotateQuery(x, out);
  } else {
    std::copy_n(x, dim(), out);
  }
}

void IvfPqIndex::EncodeResidual(const float* raw_vec, std::uint32_t list_id,
                                std::uint8_t* code) const {
  std::vector<float> residual(dim());
  const float* centroid = centroids_.row(list_id);
  for (std::size_t j = 0; j < dim(); ++j)
    residual[j] = raw_vec[j] - centroid[j];
  std::vector<float> rotated(dim());
  ToCodeSpace(residual.data(), rotated.data());
  pq_.Encode(rotated.data(), code);
}

Status IvfPqIndex::Build(FloatMatrix data,
                         std::span<const VectorId> ids) {
  if (pq_opts_.ivf.metric.metric != Metric::kL2) {
    return Status::InvalidArgument("ivf-pq supports the L2 metric only");
  }
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, pq_opts_.ivf.metric));
  VDB_RETURN_IF_ERROR(BuildCoarse());

  // Residuals relative to each vector's coarse centroid (IVFADC).
  FloatMatrix residuals(TotalRows(), dim());
  for (std::uint32_t list_id = 0; list_id < lists_.size(); ++list_id) {
    const float* centroid = centroids_.row(list_id);
    for (std::uint32_t idx : lists_[list_id]) {
      const float* x = vector(idx);
      float* r = residuals.row(idx);
      for (std::size_t j = 0; j < dim(); ++j) r[j] = x[j] - centroid[j];
    }
  }

  if (pq_opts_.use_opq) {
    OpqOptions oo;
    oo.pq = pq_opts_.pq;
    oo.opq_iters = pq_opts_.opq_iters;
    opq_ = std::make_unique<OptimizedProductQuantizer>(oo);
    VDB_RETURN_IF_ERROR(opq_->Train(residuals));
    pq_ = opq_->inner();
  } else {
    pq_ = ProductQuantizer(pq_opts_.pq);
    VDB_RETURN_IF_ERROR(pq_.Train(residuals));
  }

  codes_.resize(TotalRows() * pq_.code_size());
  for (std::uint32_t list_id = 0; list_id < lists_.size(); ++list_id) {
    for (std::uint32_t idx : lists_[list_id]) {
      EncodeResidual(vector(idx), list_id,
                     codes_.data() + std::size_t{idx} * pq_.code_size());
    }
  }
  return Status::Ok();
}

Status IvfPqIndex::Add(const float* vec, VectorId id) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  std::uint32_t list_id = NearestCentroid(centroids_, vec);
  lists_[list_id].push_back(idx);
  codes_.resize(codes_.size() + pq_.code_size());
  EncodeResidual(vec, list_id,
                 codes_.data() + std::size_t{idx} * pq_.code_size());
  return Status::Ok();
}

Status IvfPqIndex::SearchImpl(const float* query, const SearchParams& params,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  const int nprobe = EffectiveNprobe(params);
  auto probe = NearestCentroids(centroids_, query,
                                static_cast<std::size_t>(nprobe));
  if (stats != nullptr) stats->distance_comps += centroids_.rows();

  const std::size_t gather =
      params.rerank ? params.k * opts_.rerank_factor : params.k;
  TopK approx(std::min<std::size_t>(gather, TotalRows()));
  std::vector<float> qres(dim()), qrot(dim());
  std::vector<float> tables(pq_.m() * pq_.ksub());
  for (std::uint32_t list_id : probe) {
    if (stats != nullptr) ++stats->nodes_visited;
    // Per-bucket ADC tables on the rotated query residual:
    // ||q - x||^2 == ||(q - c) - (x - c)||^2, approximated in code space.
    const float* centroid = centroids_.row(list_id);
    for (std::size_t j = 0; j < dim(); ++j) qres[j] = query[j] - centroid[j];
    ToCodeSpace(qres.data(), qrot.data());
    pq_.ComputeAdcTables(qrot.data(), tables.data());
    for (std::uint32_t idx : lists_[list_id]) {
      if (!Admissible(idx, params, stats)) continue;
      float dist = pq_.AdcDistance(
          tables.data(), codes_.data() + std::size_t{idx} * pq_.code_size());
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

void IvfPqIndex::SaveStructure(BinaryWriter* w, bool with_rows) const {
  WriteMetricSpec(w, pq_opts_.ivf.metric);
  w->U64(pq_opts_.ivf.nlist);
  w->U32(static_cast<std::uint32_t>(pq_opts_.ivf.default_nprobe));
  w->U64(pq_opts_.ivf.seed);
  w->U64(pq_opts_.ivf.rerank_factor);
  if (with_rows) WriteRowBlock(w, rows_);
  SaveLists(w);
  pq_.SaveTo(w);
  w->U64(codes_.size());
  w->Bytes(codes_.data(), codes_.size());
}

Status IvfPqIndex::LoadStructure(BinaryReader* r, VectorStore* rows) {
  IvfOptions& opts = pq_opts_.ivf;  // plain IVFADC: only it has a codec
  VDB_ASSIGN_OR_RETURN(opts.metric, ReadMetricSpec(r));
  VDB_ASSIGN_OR_RETURN(opts.nlist, r->U64());
  VDB_ASSIGN_OR_RETURN(std::uint32_t nprobe, r->U32());
  opts.default_nprobe = static_cast<int>(nprobe);
  VDB_ASSIGN_OR_RETURN(opts.seed, r->U64());
  VDB_ASSIGN_OR_RETURN(opts.rerank_factor, r->U64());
  // k * rerank_factor candidates are gathered; that product must not wrap.
  if (opts.rerank_factor == 0 || opts.rerank_factor >> 32 != 0) {
    return Status::Corruption("bad rerank factor");
  }
  opts_ = opts;
  VDB_RETURN_IF_ERROR(LoadRows(r, rows, opts.metric));
  VDB_RETURN_IF_ERROR(LoadLists(r));
  VDB_RETURN_IF_ERROR(pq_.LoadFrom(r));
  if (pq_.dim() != dim()) return Status::Corruption("pq/rows dim mismatch");
  // Re-sync the copied PqOptions so Name()/code sizes stay coherent.
  pq_opts_.pq.m = pq_.m();
  VDB_ASSIGN_OR_RETURN(std::uint64_t ncodes, r->U64());
  if (ncodes != TotalRows() * pq_.code_size()) {
    return Status::Corruption("bad code payload size");
  }
  codes_.resize(ncodes);
  for (std::uint64_t i = 0; i < ncodes; ++i) {
    VDB_ASSIGN_OR_RETURN(codes_[i], r->U8());
    // A code indexes its subspace's row of the ADC table.
    if (codes_[i] >= pq_.ksub()) return Status::Corruption("bad pq code");
  }
  return Status::Ok();
}

std::size_t IvfPqIndex::MemoryBytes() const {
  std::size_t bytes =
      rows_.MemoryBytes() + centroids_.ByteSize() + codes_.size();
  for (const auto& list : lists_) bytes += list.size() * sizeof(std::uint32_t);
  bytes += pq_.m() * pq_.ksub() * pq_.dsub() * sizeof(float);  // codebooks
  return bytes;
}

}  // namespace vdb
