#include "index/ivf.h"

#include <algorithm>

#include "core/kmeans.h"
#include "core/topk.h"
#include "storage/serializer.h"

namespace vdb {

Status IvfBase::BuildCoarse() {
  KMeansOptions km;
  km.k = opts_.nlist;
  km.max_iters = opts_.kmeans_iters;
  km.seed = opts_.seed;
  VDB_ASSIGN_OR_RETURN(KMeansResult result, KMeans(rows_.vectors(), km));
  centroids_ = std::move(result.centroids);
  lists_.assign(centroids_.rows(), {});
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    lists_[result.assignments[i]].push_back(i);
  }
  return Status::Ok();
}

void IvfBase::SaveLists(BinaryWriter* w) const {
  w->Matrix(centroids_);
  w->U64(lists_.size());
  for (const auto& list : lists_) w->U32Vector(list);
}

Status IvfBase::LoadLists(BinaryReader* r) {
  VDB_ASSIGN_OR_RETURN(centroids_, r->Matrix());
  VDB_ASSIGN_OR_RETURN(std::uint64_t nlists, r->U64());
  // A probe or an Add indexes a list by its centroid's row; a query
  // probes at least one.
  if (centroids_.cols() != dim() || centroids_.rows() == 0 ||
      nlists != centroids_.rows() || opts_.default_nprobe < 1) {
    return Status::Corruption("bad centroids or nprobe");
  }
  lists_.assign(nlists, {});
  // Every row sits in exactly one list, or a probe would meet it twice.
  std::vector<bool> listed(TotalRows());
  for (auto& list : lists_) {
    VDB_ASSIGN_OR_RETURN(list, r->U32Vector());
    for (std::uint32_t idx : list) {
      if (idx >= TotalRows() || listed[idx]) {
        return Status::Corruption("bad list entry");
      }
      listed[idx] = true;
    }
  }
  if (std::find(listed.begin(), listed.end(), false) != listed.end()) {
    return Status::Corruption("row in no list");
  }
  return Status::Ok();
}

Status IvfFlatIndex::Build(FloatMatrix data,
                           std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  return BuildCoarse();
}

Status IvfFlatIndex::Add(const float* vec, VectorId id) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  lists_[NearestCentroid(centroids_, vec)].push_back(idx);
  return Status::Ok();
}

Status IvfFlatIndex::SearchImpl(const float* query, const SearchParams& params,
                                std::vector<Neighbor>* out,
                                SearchStats* stats) const {
  const int nprobe = EffectiveNprobe(params);
  auto probe = NearestCentroids(centroids_, query,
                                static_cast<std::size_t>(nprobe));
  if (stats != nullptr) stats->distance_comps += centroids_.rows();
  TopK top(params.k);
  for (std::uint32_t list_id : probe) {
    if (stats != nullptr) ++stats->nodes_visited;
    for (std::uint32_t idx : lists_[list_id]) {
      if (!Admissible(idx, params, stats)) continue;
      float dist = scorer_.Distance(query, vector(idx));
      if (stats != nullptr) ++stats->distance_comps;
      top.Push(label(idx), dist);
    }
  }
  *out = top.Take();
  return Status::Ok();
}

Status IvfFlatIndex::BatchSearch(const FloatMatrix& queries,
                                 const SearchParams& params,
                                 std::vector<std::vector<Neighbor>>* out,
                                 SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  const std::size_t nq = queries.rows();
  const int nprobe = EffectiveNprobe(params);

  // Phase 1: probe assignment per query.
  std::vector<TopK> tops;
  tops.reserve(nq);
  for (std::size_t q = 0; q < nq; ++q) tops.emplace_back(params.k);
  std::vector<std::vector<std::uint32_t>> queries_of_list(lists_.size());
  for (std::size_t q = 0; q < nq; ++q) {
    auto probe = NearestCentroids(centroids_, queries.row(q),
                                  static_cast<std::size_t>(nprobe));
    if (stats != nullptr) stats->distance_comps += centroids_.rows();
    for (std::uint32_t list_id : probe) {
      queries_of_list[list_id].push_back(static_cast<std::uint32_t>(q));
    }
  }

  // Phase 2: bucket-major scan.
  for (std::size_t list_id = 0; list_id < lists_.size(); ++list_id) {
    const auto& interested = queries_of_list[list_id];
    if (interested.empty()) continue;
    if (stats != nullptr) ++stats->nodes_visited;
    for (std::uint32_t idx : lists_[list_id]) {
      if (!Admissible(idx, params, stats)) continue;
      const float* vec = vector(idx);
      for (std::uint32_t q : interested) {
        float dist = scorer_.Distance(queries.row(q), vec);
        if (stats != nullptr) ++stats->distance_comps;
        tops[q].Push(label(idx), dist);
      }
    }
  }

  out->resize(nq);
  for (std::size_t q = 0; q < nq; ++q) (*out)[q] = tops[q].Take();
  return Status::Ok();
}

void IvfFlatIndex::SaveStructure(BinaryWriter* w, bool with_rows) const {
  WriteMetricSpec(w, opts_.metric);
  w->U64(opts_.nlist);
  w->U32(static_cast<std::uint32_t>(opts_.default_nprobe));
  w->U32(static_cast<std::uint32_t>(opts_.kmeans_iters));
  w->U64(opts_.seed);
  w->U64(opts_.rerank_factor);
  if (with_rows) WriteRowBlock(w, rows_);
  SaveLists(w);
}

Status IvfFlatIndex::LoadStructure(BinaryReader* r, VectorStore* rows) {
  VDB_ASSIGN_OR_RETURN(opts_.metric, ReadMetricSpec(r));
  VDB_ASSIGN_OR_RETURN(opts_.nlist, r->U64());
  VDB_ASSIGN_OR_RETURN(std::uint32_t nprobe, r->U32());
  opts_.default_nprobe = static_cast<int>(nprobe);
  VDB_ASSIGN_OR_RETURN(std::uint32_t iters, r->U32());
  opts_.kmeans_iters = static_cast<int>(iters);
  VDB_ASSIGN_OR_RETURN(opts_.seed, r->U64());
  VDB_ASSIGN_OR_RETURN(opts_.rerank_factor, r->U64());
  VDB_RETURN_IF_ERROR(LoadRows(r, rows, opts_.metric));
  return LoadLists(r);
}

std::size_t IvfFlatIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes() + centroids_.ByteSize();
  for (const auto& list : lists_) bytes += list.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace vdb
