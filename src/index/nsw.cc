#include "index/nsw.h"

#include <algorithm>

#include "index/graph_util.h"

namespace vdb {

Status NswIndex::Build(FloatMatrix data,
                       std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  adjacency_.assign(TotalRows(), {});
  inserted_ = 0;
  for (std::uint32_t i = 0; i < TotalRows(); ++i) Insert(i);
  return Status::Ok();
}

Status NswIndex::Add(const float* vec, VectorId id) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  adjacency_.emplace_back();
  Insert(idx);
  return Status::Ok();
}

std::vector<std::uint32_t> NswIndex::EntryPoints() const {
  // Deterministic spread of entry points across insertion order: early
  // nodes carry the long-range links.
  std::vector<std::uint32_t> entries;
  if (inserted_ == 0) return entries;
  entries.push_back(0);
  for (std::size_t e = 1; e < opts_.num_entry_points; ++e) {
    entries.push_back(static_cast<std::uint32_t>(
        (e * 2654435761ull + opts_.seed) % inserted_));
  }
  return entries;
}

void NswIndex::Insert(std::uint32_t idx) {
  if (inserted_ == 0) {
    inserted_ = idx + 1;
    return;
  }
  auto entries = EntryPoints();
  std::size_t ef = std::max(opts_.ef_construction, opts_.m);
  auto nearest = graph::BeamSearch(
      scorer_, rows_.vectors().data(), vector(idx), entries, ef, inserted_,
      FilterMode::kNone,
      [this](std::uint32_t u) {
        return std::span<const std::uint32_t>(adjacency_[u]);
      },
      [](std::uint32_t) { return true; }, nullptr);
  std::size_t links = std::min(opts_.m, nearest.size());
  for (std::size_t j = 0; j < links; ++j) {
    std::uint32_t nb = nearest[j].idx;
    adjacency_[idx].push_back(nb);
    adjacency_[nb].push_back(idx);
  }
  inserted_ = std::max<std::size_t>(inserted_, idx + 1);
}

Status NswIndex::SearchImpl(const float* query, const SearchParams& params,
                            std::vector<Neighbor>* out,
                            SearchStats* stats) const {
  GraphSearch(
      query, EntryPoints(),
      [this](std::uint32_t u) {
        return std::span<const std::uint32_t>(adjacency_[u]);
      },
      opts_.default_ef, params, out, stats);
  return Status::Ok();
}

double NswIndex::MeanDegree() const {
  if (adjacency_.empty()) return 0.0;
  std::size_t edges = 0;
  for (const auto& adj : adjacency_) edges += adj.size();
  return static_cast<double>(edges) / static_cast<double>(adjacency_.size());
}

std::size_t NswIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes();
  for (const auto& adj : adjacency_) bytes += adj.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace vdb
