#ifndef VDB_INDEX_GRAPH_UTIL_H_
#define VDB_INDEX_GRAPH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "core/simd.h"
#include "core/types.h"
#include "index/index.h"

namespace vdb::graph {

/// Internal candidate (distance, node id) ordered by distance.
struct Cand {
  float dist;
  std::uint32_t idx;
  friend bool operator<(const Cand& a, const Cand& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.idx < b.idx;
  }
  friend bool operator>(const Cand& a, const Cand& b) { return b < a; }
};

/// Neighbors whose row and adjacency list are prefetched per expansion,
/// ahead of the batch score, so their cache misses overlap.
inline constexpr std::size_t kPrefetchDepth = 8;

/// Best-first ("beam") search over an adjacency structure — the single
/// search procedure shared by every graph index (KNNG, NSW, HNSW, Vamana,
/// FANNG) and the place where the paper's graph hybrid operators live:
///
///  - FilterMode::kVisitFirst — traversal crosses non-matching nodes but
///    only matching ones enter the result set (single-stage filtering);
///  - FilterMode::kBlockFirst — non-matching nodes are never expanded at
///    all (blocked index scan; may disconnect the graph, the failure mode
///    §2.3 attributes to online blocking).
///
/// Node u's vector is row u of the row-major matrix `base` (`scorer.dim()`
/// floats per row); `neighbors(u)` returns a span of adjacent node ids and
/// `admit(u)` checks deletion + predicate. Returns up to `ef` admissible
/// results, ascending by distance.
///
/// Each expansion runs in two passes (memory-level parallelism): collect
/// the unvisited, unblocked neighbors, prefetch the first kPrefetchDepth
/// of their rows and adjacency lists, then score them all with one
/// `Scorer::DistanceBatch` call. Entry points are scored the same way.
/// Because DistanceBatch is bit-identical per row to `Distance`, and
/// scoring and admission keep neighbor order, the results and SearchStats
/// equal those of a one-neighbor-at-a-time loop
/// (tests/beam_search_reference.h holds that loop; extensions_test checks
/// the two agree).
///
/// `expanded_out`, when non-null, receives every node whose neighborhood
/// was expanded, in expansion order — DiskANN's visited set V, whose
/// far-from-target path nodes are exactly what alpha-RNG pruning turns
/// into the long edges that keep the graph navigable.
template <typename NeighborsFn, typename AdmitFn>
std::vector<Cand> BeamSearch(const Scorer& scorer, const float* base,
                             const float* query,
                             std::span<const std::uint32_t> entries,
                             std::size_t ef, std::size_t num_nodes,
                             FilterMode mode, NeighborsFn&& neighbors,
                             AdmitFn&& admit, SearchStats* stats,
                             std::vector<Cand>* expanded_out = nullptr) {
  const std::size_t dim = scorer.dim();
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> frontier;
  // Admissible results, worst on top (bounded by ef).
  std::priority_queue<Cand> results;
  Bitset visited(num_nodes);
  // Nodes awaiting their batch score, reused across hops.
  std::vector<std::uint32_t> pending;
  std::vector<float> pending_dist;

  auto lower_bound = [&] {
    return results.size() >= ef ? results.top().dist
                                : std::numeric_limits<float>::infinity();
  };
  // The entry points are the first batch and enter the frontier
  // unconditionally; each later batch is one expanded node's neighbors,
  // kept while they beat the bound.
  std::span<const std::uint32_t> batch = entries;
  bool entry_batch = true;
  for (;;) {
    pending.clear();
    for (std::uint32_t u : batch) {
      if (u >= num_nodes || visited.Test(u)) continue;
      visited.Set(u);
      if (mode == FilterMode::kBlockFirst && !admit(u)) continue;
      pending.push_back(u);
    }
    const std::size_t pf = std::min(pending.size(), kPrefetchDepth);
    for (std::size_t i = 0; i < pf; ++i) {
      simd::PrefetchFloats(base + std::size_t{pending[i]} * dim, dim);
      std::span<const std::uint32_t> adj = neighbors(pending[i]);
      simd::PrefetchBytes(adj.data(), adj.size() * sizeof(std::uint32_t));
    }
    pending_dist.resize(pending.size());
    scorer.DistanceBatch(query, base, pending.data(), pending.size(),
                         pending_dist.data());
    if (stats != nullptr) stats->distance_comps += pending.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const float d = pending_dist[i];
      if (entry_batch || d < lower_bound() || results.size() < ef) {
        frontier.push({d, pending[i]});
        if (admit(pending[i])) {
          results.push({d, pending[i]});
          while (results.size() > ef) results.pop();
        }
      }
    }
    entry_batch = false;

    if (frontier.empty()) break;
    Cand c = frontier.top();
    frontier.pop();
    if (c.dist > lower_bound()) break;
    if (stats != nullptr) {
      ++stats->hops;
      ++stats->nodes_visited;
    }
    if (expanded_out != nullptr) expanded_out->push_back(c);
    batch = neighbors(c.idx);
  }

  std::vector<Cand> out(results.size());
  for (std::size_t i = results.size(); i-- > 0;) {
    out[i] = results.top();
    results.pop();
  }
  return out;
}

/// Greedy single-path descent to the locally nearest node (used by HNSW's
/// upper layers and as a cheap navigation primitive).
template <typename NeighborsFn, typename DistFn>
std::uint32_t GreedyDescend(std::uint32_t entry, NeighborsFn&& neighbors,
                            DistFn&& dist, SearchStats* stats) {
  std::uint32_t current = entry;
  float best = dist(current);
  if (stats != nullptr) ++stats->distance_comps;
  bool improved = true;
  while (improved) {
    improved = false;
    if (stats != nullptr) ++stats->hops;
    for (std::uint32_t nb : neighbors(current)) {
      float d = dist(nb);
      if (stats != nullptr) ++stats->distance_comps;
      if (d < best) {
        best = d;
        current = nb;
        improved = true;
      }
    }
  }
  return current;
}

}  // namespace vdb::graph

#endif  // VDB_INDEX_GRAPH_UTIL_H_
