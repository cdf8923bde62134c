#include "index/diskann.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/topk.h"

namespace vdb {

namespace {

/// Appends to `out` the nodes a BFS from `start` reaches over `adjacency`
/// without passing a node already in `mark`, until `out` holds `limit`
/// nodes. `out` itself is the BFS queue.
void Bfs(const std::vector<std::vector<std::uint32_t>>& adjacency,
         std::uint32_t start, std::size_t limit, Bitset* mark,
         std::vector<std::uint32_t>* out) {
  std::size_t head = out->size();
  mark->Set(start);
  out->push_back(start);
  while (head < out->size() && out->size() < limit) {
    for (std::uint32_t nb : adjacency[(*out)[head++]]) {
      if (out->size() >= limit) break;
      if (mark->Test(nb)) continue;
      mark->Set(nb);
      out->push_back(nb);
    }
  }
}

/// Slot order of the nodes (slot -> build row), `per_page` slots a page.
/// Seeds come in BFS order from the medoid, then any nodes it cannot
/// reach; each seed still unplaced fills the open page with a BFS over
/// unplaced neighbours, so a node tends to share its page with its graph
/// neighbours: Starling's block shuffling (SIGMOD 2024) in its simplest
/// form.
std::vector<std::uint32_t> PageLocalOrder(
    const std::vector<std::vector<std::uint32_t>>& adjacency,
    std::uint32_t medoid, std::size_t per_page) {
  const std::size_t n = adjacency.size();
  std::vector<std::uint32_t> seeds;
  seeds.reserve(n);
  Bitset reached(n);
  Bfs(adjacency, medoid, n, &reached, &seeds);
  for (std::uint32_t node = 0; node < n; ++node) {
    if (!reached.Test(node)) Bfs(adjacency, node, n, &reached, &seeds);
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  Bitset placed(n);
  for (std::uint32_t seed : seeds) {
    if (placed.Test(seed)) continue;
    const std::size_t page_end = (order.size() / per_page + 1) * per_page;
    Bfs(adjacency, seed, std::min(page_end, n), &placed, &order);
  }
  return order;
}

}  // namespace

Status DiskAnnIndex::Build(FloatMatrix data,
                           std::span<const VectorId> ids) {
  if (data.empty()) return Status::InvalidArgument("empty build data");
  if (opts_.vamana.metric.metric != Metric::kL2) {
    return Status::InvalidArgument("diskann supports the L2 metric only");
  }
  dim_ = data.cols();
  VDB_ASSIGN_OR_RETURN(scorer_, Scorer::Create(opts_.vamana.metric, dim_));

  node_stride_ = RowAt() + sizeof(std::uint32_t);  // see diskann.h
  if (node_stride_ > opts_.file.page_size) {
    return Status::InvalidArgument(
        "node block exceeds page size; lower R or raise page_size");
  }
  nodes_per_page_ = opts_.file.page_size / node_stride_;

  // 1. In-memory Vamana construction, in build order.
  VamanaIndex vamana(opts_.vamana);
  VDB_RETURN_IF_ERROR(vamana.Build(data, ids));
  const auto& adjacency = vamana.adjacency();

  // 2. Slot order: from here on the index speaks slots, and build rows
  // survive only in the node blocks.
  const std::size_t n = data.rows();
  const std::vector<std::uint32_t> order =
      PageLocalOrder(adjacency, vamana.medoid(), nodes_per_page_);
  std::vector<std::uint32_t> slot_of(n);  // build row -> slot
  std::vector<VectorId> labels(n);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    slot_of[order[slot]] = slot;
    labels[slot] = ids.empty() ? order[slot] : ids[order[slot]];
  }
  medoid_ = slot_of[vamana.medoid()];
  rows_.Reset(n, labels);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    if (rows_.RowOf(labels[slot]) != slot) {
      return Status::InvalidArgument("diskann build labels must be distinct");
    }
  }

  // 3. In-memory PQ navigation codes over the raw vectors.
  pq_ = ProductQuantizer(opts_.pq);
  VDB_RETURN_IF_ERROR(pq_.Train(data));
  codes_.resize(n * pq_.code_size());
  for (std::size_t slot = 0; slot < n; ++slot) {
    pq_.Encode(data.row(order[slot]), codes_.data() + slot * pq_.code_size());
  }

  // 4. Serialize node blocks in slot order.
  VDB_ASSIGN_OR_RETURN(file_, PagedFile::Create(path_, opts_.file));
  std::vector<std::uint8_t> page(opts_.file.page_size, 0);
  const std::uint64_t num_pages = (n + nodes_per_page_ - 1) / nodes_per_page_;
  for (std::uint64_t p = 0; p < num_pages; ++p) {
    std::fill(page.begin(), page.end(), 0);
    for (std::size_t k = 0; k < nodes_per_page_; ++k) {
      const std::size_t slot = p * nodes_per_page_ + k;
      if (slot >= n) break;
      const std::uint32_t row = order[slot];
      std::uint8_t* block = page.data() + k * node_stride_;
      std::uint32_t degree = static_cast<std::uint32_t>(
          std::min(adjacency[row].size(), opts_.vamana.r));
      std::memcpy(block, &degree, sizeof(degree));
      for (std::uint32_t j = 0; j < degree; ++j) {
        std::memcpy(block + sizeof(degree) + j * sizeof(std::uint32_t),
                    &slot_of[adjacency[row][j]], sizeof(std::uint32_t));
      }
      std::memcpy(block + VectorAt(), data.row(row), dim_ * sizeof(float));
      std::memcpy(block + RowAt(), &row, sizeof(row));
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
      // Block layout (see diskann.h): [degree][R neighbor slots][vector]
      // [row]. The memcpy that filled `blocks` created the uint32/float
      // objects the pointers below read.
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
      if (admit(idx)) {
        // Keyed (build row, slot): exact-distance ties break in build
        // order, as without the layout, and the low half is the slot.
        std::uint32_t row;
        std::memcpy(&row, block + RowAt(), sizeof(row));
        exact.Push(std::uint64_t{row} << 32 | idx, dist);
      }
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
  // One sweep over the pages in slot order places each live vector at its
  // build row; the rows then come out in build order.
  const std::size_t n = rows_.rows();
  std::vector<float> vecs(n * dim_);
  std::vector<std::uint32_t> slot_at(n, RowIds::kNoRow);  // build row -> slot
  std::vector<std::uint8_t> page(opts_.file.page_size);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    const std::size_t k = slot % nodes_per_page_;
    if (k == 0) {
      VDB_RETURN_IF_ERROR(file_->ReadPage(slot / nodes_per_page_, page.data()));
    }
    if (rows_.IsDeleted(slot)) continue;
    const std::uint8_t* block = page.data() + k * node_stride_;
    std::uint32_t row;
    std::memcpy(&row, block + RowAt(), sizeof(row));
    if (row >= n) return Status::Corruption("diskann node block row past end");
    slot_at[row] = slot;
    std::memcpy(vecs.data() + std::size_t{row} * dim_, block + VectorAt(),
                dim_ * sizeof(float));
  }
  for (std::size_t row = 0; row < n; ++row) {
    if (slot_at[row] == RowIds::kNoRow) continue;
    fn(rows_.label(slot_at[row]), vecs.data() + row * dim_);
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
    const std::uint32_t slot = rows_.LiveRow(id);
    if (slot == RowIds::kNoRow) continue;
    const std::uint64_t offset = NodeOffset(slot) + VectorAt();
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
