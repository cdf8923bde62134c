#include "index/vamana.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/rng.h"
#include "index/graph_util.h"

namespace vdb {

Status VamanaIndex::Build(FloatMatrix data,
                          std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  if (opts_.r == 0 || opts_.l == 0) {
    return Status::InvalidArgument("vamana: r and l must be positive");
  }
  if (opts_.alpha < 1.0f) {
    return Status::InvalidArgument("vamana: alpha must be >= 1");
  }
  const std::size_t n = TotalRows();
  Rng rng(opts_.seed);

  // Random initial graph with out-degree ~R.
  adjacency_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t degree = std::min(opts_.r, n - 1);
    while (adjacency_[i].size() < degree) {
      std::uint32_t cand = static_cast<std::uint32_t>(rng.Next(n));
      if (cand == i) continue;
      if (std::find(adjacency_[i].begin(), adjacency_[i].end(), cand) !=
          adjacency_[i].end()) {
        continue;
      }
      adjacency_[i].push_back(cand);
    }
  }

  medoid_ = FindMedoid();

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (int pass = 0; pass < opts_.passes; ++pass) {
    // Random visit order per pass.
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t pick = j + rng.Next(n - j);
      std::swap(order[j], order[pick]);
    }
    for (std::uint32_t p : order) {
      // Search trial from the navigating node. The candidate pool is the
      // beam's *visited set* (DiskANN's V) — its far-from-p path nodes are
      // what alpha-RNG pruning keeps as navigability-preserving long
      // edges — plus p's current neighbors.
      std::uint32_t entries[1] = {medoid_};
      std::vector<graph::Cand> expanded;
      auto results = graph::BeamSearch(
          scorer_, rows_.vectors().data(), vector(p), entries, opts_.l, n,
          FilterMode::kNone,
          [this](std::uint32_t u) {
            return std::span<const std::uint32_t>(adjacency_[u]);
          },
          [](std::uint32_t) { return true; }, nullptr, &expanded);

      std::vector<std::pair<float, std::uint32_t>> candidates;
      candidates.reserve(results.size() + expanded.size() +
                         adjacency_[p].size());
      for (const auto& c : results) {
        if (c.idx != p) candidates.emplace_back(c.dist, c.idx);
      }
      for (const auto& c : expanded) {
        if (c.idx != p) candidates.emplace_back(c.dist, c.idx);
      }
      for (std::uint32_t nb : adjacency_[p]) {
        candidates.emplace_back(scorer_.Distance(vector(p), vector(nb)), nb);
      }
      RobustPrune(p, &candidates);

      // Back-edges, pruning overfull neighbors.
      for (std::uint32_t nb : adjacency_[p]) {
        auto& back = adjacency_[nb];
        if (std::find(back.begin(), back.end(), p) != back.end()) continue;
        back.push_back(p);
        if (back.size() > opts_.r) {
          std::vector<std::pair<float, std::uint32_t>> cand;
          cand.reserve(back.size());
          for (std::uint32_t b : back) {
            cand.emplace_back(scorer_.Distance(vector(nb), vector(b)), b);
          }
          RobustPrune(nb, &cand);
        }
      }
    }
  }
  return Status::Ok();
}

std::uint32_t VamanaIndex::FindMedoid() const {
  // Nearest point to the dataset mean — a cheap, standard medoid proxy.
  const std::size_t n = TotalRows(), d = dim();
  std::vector<double> mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const float* x = vector(static_cast<std::uint32_t>(i));
    for (std::size_t j = 0; j < d; ++j) mean[j] += x[j];
  }
  std::vector<float> center(d);
  for (std::size_t j = 0; j < d; ++j)
    center[j] = static_cast<float>(mean[j] / static_cast<double>(n));
  float best = std::numeric_limits<float>::max();
  std::uint32_t arg = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    float dist = scorer_.Distance(center.data(), vector(i));
    if (dist < best) {
      best = dist;
      arg = i;
    }
  }
  return arg;
}

void VamanaIndex::RobustPrune(
    std::uint32_t node,
    std::vector<std::pair<float, std::uint32_t>>* candidates) {
  // alpha is applied to the scorer's raw values (squared L2), matching the
  // DiskANN reference implementation. Under strong distance concentration
  // (tight high-dim clusters) large alpha stops pruning near-duplicates
  // and navigability collapses — see the A1(b) ablation.
  const float alpha = opts_.alpha;
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end(),
                                [](const auto& a, const auto& b) {
                                  return a.second == b.second;
                                }),
                    candidates->end());
  std::vector<std::uint32_t> selected;
  std::vector<bool> dropped(candidates->size(), false);
  for (std::size_t i = 0;
       i < candidates->size() && selected.size() < opts_.r; ++i) {
    if (dropped[i]) continue;
    auto [dist_p, v] = (*candidates)[i];
    if (v == node) continue;
    selected.push_back(v);
    for (std::size_t j = i + 1; j < candidates->size(); ++j) {
      if (dropped[j]) continue;
      auto [dist_pj, u] = (*candidates)[j];
      if (alpha * scorer_.Distance(vector(v), vector(u)) <= dist_pj) {
        dropped[j] = true;
      }
    }
  }
  adjacency_[node] = std::move(selected);
}

Status VamanaIndex::SearchImpl(const float* query, const SearchParams& params,
                               std::vector<Neighbor>* out,
                               SearchStats* stats) const {
  std::uint32_t entries[1] = {medoid_};
  GraphSearch(
      query, entries,
      [this](std::uint32_t u) {
        return std::span<const std::uint32_t>(adjacency_[u]);
      },
      opts_.default_ef, params, out, stats);
  return Status::Ok();
}

std::size_t VamanaIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes();
  for (const auto& adj : adjacency_) bytes += adj.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace vdb
