#include "index/diskann.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/topk.h"

namespace vdb {

Status DiskAnnIndex::Build(FloatMatrix data,
                           std::span<const VectorId> ids) {
  if (data.empty()) return Status::InvalidArgument("empty build data");
  if (opts_.vamana.metric.metric != Metric::kL2) {
    return Status::InvalidArgument("diskann supports the L2 metric only");
  }
  dim_ = data.cols();
  VDB_ASSIGN_OR_RETURN(scorer_, Scorer::Create(opts_.vamana.metric, dim_));

  // Node block: [uint32 degree][R x uint32 neighbors][dim x float vector].
  node_stride_ = sizeof(std::uint32_t) * (1 + opts_.vamana.r) +
                 sizeof(float) * dim_;
  if (node_stride_ > opts_.file.page_size) {
    return Status::InvalidArgument(
        "node block exceeds page size; lower R or raise page_size");
  }
  nodes_per_page_ = opts_.file.page_size / node_stride_;

  // 1. In-memory Vamana construction.
  VamanaIndex vamana(opts_.vamana);
  VDB_RETURN_IF_ERROR(vamana.Build(data, ids));
  medoid_ = vamana.medoid();

  rows_.Reset(data.rows(), ids);

  // 2. In-memory PQ navigation codes over the raw vectors.
  pq_ = ProductQuantizer(opts_.pq);
  VDB_RETURN_IF_ERROR(pq_.Train(data));
  codes_.resize(data.rows() * pq_.code_size());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    pq_.Encode(data.row(i), codes_.data() + i * pq_.code_size());
  }

  // 3. Serialize node blocks.
  VDB_ASSIGN_OR_RETURN(file_, PagedFile::Create(path_, opts_.file));
  const auto& adjacency = vamana.adjacency();
  std::vector<std::uint8_t> page(opts_.file.page_size, 0);
  std::uint64_t num_pages =
      (data.rows() + nodes_per_page_ - 1) / nodes_per_page_;
  for (std::uint64_t p = 0; p < num_pages; ++p) {
    std::fill(page.begin(), page.end(), 0);
    for (std::size_t slot = 0; slot < nodes_per_page_; ++slot) {
      std::size_t node = p * nodes_per_page_ + slot;
      if (node >= data.rows()) break;
      std::uint8_t* at = page.data() + slot * node_stride_;
      std::uint32_t degree = static_cast<std::uint32_t>(
          std::min(adjacency[node].size(), opts_.vamana.r));
      std::memcpy(at, &degree, sizeof(degree));
      at += sizeof(degree);
      std::memcpy(at, adjacency[node].data(),
                  degree * sizeof(std::uint32_t));
      at += opts_.vamana.r * sizeof(std::uint32_t);
      std::memcpy(at, data.row(node), dim_ * sizeof(float));
    }
    VDB_RETURN_IF_ERROR(file_->WritePage(p, page.data()));
  }
  file_->ResetCounters();
  return Status::Ok();
}

Status DiskAnnIndex::SearchImpl(const float* query,
                                const SearchParams& params,
                                std::vector<Neighbor>* out,
                                SearchStats* stats) const {
  if (file_ == nullptr) return Status::FailedPrecondition("not built");
  const std::size_t ef = std::max<std::size_t>(
      params.ef > 0 ? static_cast<std::size_t>(params.ef) : opts_.default_ef,
      params.k);
  const std::size_t beam =
      params.beam_width > 0 ? static_cast<std::size_t>(params.beam_width)
                            : opts_.default_beam_width;
  const std::uint64_t reads_before = file_->reads();

  std::vector<float> tables(pq_.m() * pq_.ksub());
  pq_.ComputeAdcTables(query, tables.data());
  auto adc = [&](std::uint32_t idx) {
    if (stats != nullptr) ++stats->code_comps;
    return pq_.AdcDistance(tables.data(),
                           codes_.data() + std::size_t{idx} * pq_.code_size());
  };
  auto admit = [&](std::uint32_t idx) {
    return rows_.Admissible(idx, params.filter, stats);
  };

  // Candidate list (DiskANN's L-list): ascending by ADC distance.
  struct Cand {
    float adc_dist;
    std::uint32_t idx;
  };
  std::vector<Cand> cands;
  Bitset seen(rows_.rows());
  Bitset expanded(rows_.rows());
  auto insert_cand = [&](std::uint32_t idx) {
    if (seen.Test(idx)) return;
    seen.Set(idx);
    if (params.filter_mode == FilterMode::kBlockFirst && !admit(idx)) return;
    Cand c{adc(idx), idx};
    auto pos = std::lower_bound(
        cands.begin(), cands.end(), c,
        [](const Cand& a, const Cand& b) { return a.adc_dist < b.adc_dist; });
    cands.insert(pos, c);
    if (cands.size() > ef) cands.pop_back();
  };
  insert_cand(medoid_);

  // Exact distances of expanded (read) nodes, for final re-ranking.
  TopK exact(std::max(params.k, ef));
  // The beam's node blocks, parsed in place; ReadBlocks copies only them.
  std::vector<std::uint8_t> blocks(beam * node_stride_);
  std::vector<std::uint32_t> batch;
  std::vector<std::uint64_t> offsets;
  batch.reserve(beam);
  offsets.reserve(beam);
  const std::size_t vec_at = VectorAt();
  while (true) {
    batch.clear();
    offsets.clear();
    for (std::size_t i = 0; i < cands.size() && batch.size() < beam; ++i) {
      if (expanded.Test(cands[i].idx)) continue;
      batch.push_back(cands[i].idx);
      offsets.push_back(NodeOffset(cands[i].idx));
    }
    if (batch.empty()) break;
    // One coalesced batch read for the whole beam: B candidates cost
    // O(page runs) syscalls and one PagedFile lock acquisition.
    VDB_RETURN_IF_ERROR(
        file_->ReadBlocks(offsets, node_stride_, blocks.data()));
    for (std::size_t b = 0; b < batch.size(); ++b) {
      std::uint32_t idx = batch[b];
      // Block layout (see Build): [degree][R neighbor ids][vector]. The
      // memcpy that filled `blocks` created the uint32/float objects the
      // pointers below read.
      const std::uint8_t* block = blocks.data() + b * node_stride_;
      std::uint32_t degree;
      std::memcpy(&degree, block, sizeof(degree));
      if (degree > opts_.vamana.r) {
        return Status::Corruption("diskann node block degree exceeds R");
      }
      const auto* neighbors =
          reinterpret_cast<const std::uint32_t*>(block + sizeof(degree));
      const auto* vec = reinterpret_cast<const float*>(block + vec_at);
      expanded.Set(idx);
      if (stats != nullptr) ++stats->nodes_visited;
      float dist = scorer_.Distance(query, vec);
      if (stats != nullptr) ++stats->distance_comps;
      if (admit(idx)) exact.Push(static_cast<VectorId>(idx), dist);
      for (std::uint32_t j = 0; j < degree; ++j) insert_cand(neighbors[j]);
    }
    if (stats != nullptr) ++stats->hops;
  }

  out->clear();
  for (const auto& nb : exact.Take()) {
    if (out->size() >= params.k) break;
    out->push_back({rows_.label(static_cast<std::uint32_t>(nb.id)), nb.dist});
  }
  if (stats != nullptr) stats->io_reads += file_->reads() - reads_before;
  return Status::Ok();
}

Status DiskAnnIndex::ScanRows(const RowFn& fn, SearchStats* stats) const {
  if (file_ == nullptr) return Status::FailedPrecondition("not built");
  const std::uint64_t reads_before = file_->reads();
  // Nodes are rows, laid out in order: one sweep over the pages.
  std::vector<std::uint8_t> page(opts_.file.page_size);
  for (std::uint32_t row = 0; row < rows_.rows(); ++row) {
    const std::size_t slot = row % nodes_per_page_;
    if (slot == 0) {
      VDB_RETURN_IF_ERROR(file_->ReadPage(row / nodes_per_page_, page.data()));
    }
    if (rows_.IsDeleted(row)) continue;
    fn(rows_.label(row), reinterpret_cast<const float*>(
                             page.data() + slot * node_stride_ + VectorAt()));
  }
  if (stats != nullptr) stats->io_reads += file_->reads() - reads_before;
  return Status::Ok();
}

Status DiskAnnIndex::ReadRows(std::span<const VectorId> ids, const RowFn& fn,
                              SearchStats* stats) const {
  if (file_ == nullptr) return Status::FailedPrecondition("not built");
  const std::uint64_t reads_before = file_->reads();
  std::vector<float> vec(dim_);
  for (VectorId id : ids) {
    const std::uint32_t row = rows_.LiveRow(id);
    if (row == RowIds::kNoRow) continue;
    const std::uint64_t offset = NodeOffset(row) + VectorAt();
    VDB_RETURN_IF_ERROR(
        file_->ReadBlocks({&offset, 1}, dim_ * sizeof(float),
                          reinterpret_cast<std::uint8_t*>(vec.data())));
    fn(id, vec.data());
  }
  if (stats != nullptr) stats->io_reads += file_->reads() - reads_before;
  return Status::Ok();
}

std::size_t DiskAnnIndex::MemoryBytes() const {
  return codes_.size() + rows_.LabelBytes() +
         pq_.m() * pq_.ksub() * pq_.dsub() * sizeof(float);
}

std::size_t DiskAnnIndex::DiskBytes() const {
  return file_ ? file_->num_pages() * opts_.file.page_size : 0;
}

}  // namespace vdb
