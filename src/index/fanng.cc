#include "index/fanng.h"

#include <algorithm>

#include "index/graph_util.h"

namespace vdb {

Status FanngIndex::Build(FloatMatrix data,
                         std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  if (opts_.max_degree == 0) {
    return Status::InvalidArgument("max_degree must be positive");
  }
  const std::size_t n = TotalRows();
  Rng rng(opts_.seed);

  // Sparse random bootstrap so early trials have something to walk on.
  adjacency_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    for (int e = 0; e < 2 && n > 1; ++e) {
      std::uint32_t cand = static_cast<std::uint32_t>(rng.Next(n));
      if (cand != i) AddEdge(static_cast<std::uint32_t>(i), cand);
    }
  }
  edges_added_ = 0;  // bootstrap edges excluded from the diagnostic

  const std::size_t trials = opts_.trials_per_point * n;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::uint32_t source = static_cast<std::uint32_t>(rng.Next(n));
    std::uint32_t target = static_cast<std::uint32_t>(rng.Next(n));
    if (source == target) continue;
    // Greedy walk toward the target with the current graph.
    std::uint32_t stranded = graph::GreedyDescend(
        source,
        [this](std::uint32_t u) {
          return std::span<const std::uint32_t>(adjacency_[u]);
        },
        [this, target](std::uint32_t u) {
          return scorer_.Distance(vector(target), vector(u));
        },
        nullptr);
    if (stranded != target) {
      AddEdge(stranded, target);
      ++edges_added_;
    }
  }

  entry_points_.clear();
  std::size_t num_entries =
      std::min<std::size_t>(std::max<std::size_t>(opts_.num_entry_points,
                                                  1),
                            n);
  for (std::size_t e = 0; e < num_entries; ++e) {
    entry_points_.push_back(static_cast<std::uint32_t>((e * n) / num_entries));
  }
  return Status::Ok();
}

void FanngIndex::AddEdge(std::uint32_t u, std::uint32_t v) {
  auto& adj = adjacency_[u];
  if (std::find(adj.begin(), adj.end(), v) != adj.end()) return;
  adj.push_back(v);
  if (adj.size() <= opts_.max_degree) return;
  // Occlusion prune (RNG rule): keep the closest neighbor, drop any
  // neighbor that is closer to an already-kept one than to u.
  std::vector<std::pair<float, std::uint32_t>> cand;
  cand.reserve(adj.size());
  for (std::uint32_t nb : adj) {
    cand.emplace_back(scorer_.Distance(vector(u), vector(nb)), nb);
  }
  std::sort(cand.begin(), cand.end());
  std::vector<std::uint32_t> kept;
  for (const auto& [dist_u, node] : cand) {
    bool occluded = false;
    for (std::uint32_t k : kept) {
      if (scorer_.Distance(vector(k), vector(node)) < dist_u) {
        occluded = true;
        break;
      }
    }
    if (!occluded) kept.push_back(node);
    if (kept.size() >= opts_.max_degree) break;
  }
  // Degree headroom: refill with the nearest dropped candidates.
  for (const auto& [dist_u, node] : cand) {
    if (kept.size() >= opts_.max_degree) break;
    if (std::find(kept.begin(), kept.end(), node) == kept.end()) {
      kept.push_back(node);
    }
  }
  adj = std::move(kept);
}

Status FanngIndex::SearchImpl(const float* query, const SearchParams& params,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  GraphSearch(
      query, entry_points_,
      [this](std::uint32_t u) {
        return std::span<const std::uint32_t>(adjacency_[u]);
      },
      opts_.default_ef, params, out, stats);
  return Status::Ok();
}

std::size_t FanngIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes();
  for (const auto& adj : adjacency_) bytes += adj.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace vdb
