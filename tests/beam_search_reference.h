// Reference graph beam search: best-first search exactly as it was written
// before expansion was batched — one neighbor at a time, each scored by a
// caller-supplied `dist(u)` as soon as it is collected. The property test
// in extensions_test requires graph::BeamSearch (two-pass expansion, one
// Scorer::DistanceBatch call per hop, prefetch) to reproduce this loop's
// results, expansion order and SearchStats bit for bit.

#ifndef VDB_TESTS_BEAM_SEARCH_REFERENCE_H_
#define VDB_TESTS_BEAM_SEARCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "core/types.h"
#include "index/graph_util.h"
#include "index/index.h"

namespace vdb::beam_ref {

template <typename NeighborsFn, typename DistFn, typename AdmitFn>
std::vector<graph::Cand> BeamSearch(std::span<const std::uint32_t> entries,
                                    std::size_t ef, std::size_t num_nodes,
                                    FilterMode mode, NeighborsFn&& neighbors,
                                    DistFn&& dist, AdmitFn&& admit,
                                    SearchStats* stats,
                                    std::vector<graph::Cand>* expanded_out) {
  using graph::Cand;
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> frontier;
  std::priority_queue<Cand> results;
  Bitset visited(num_nodes);

  auto lower_bound = [&] {
    return results.size() >= ef ? results.top().dist
                                : std::numeric_limits<float>::infinity();
  };

  for (std::uint32_t e : entries) {
    if (e >= num_nodes || visited.Test(e)) continue;
    visited.Set(e);
    if (mode == FilterMode::kBlockFirst && !admit(e)) continue;
    float d = dist(e);
    if (stats != nullptr) ++stats->distance_comps;
    frontier.push({d, e});
    if (admit(e)) {
      results.push({d, e});
      while (results.size() > ef) results.pop();
    }
  }

  while (!frontier.empty()) {
    Cand c = frontier.top();
    frontier.pop();
    if (c.dist > lower_bound()) break;
    if (stats != nullptr) {
      ++stats->hops;
      ++stats->nodes_visited;
    }
    if (expanded_out != nullptr) expanded_out->push_back(c);
    for (std::uint32_t nb : neighbors(c.idx)) {
      if (visited.Test(nb)) continue;
      visited.Set(nb);
      if (mode == FilterMode::kBlockFirst && !admit(nb)) continue;
      float d = dist(nb);
      if (stats != nullptr) ++stats->distance_comps;
      if (d < lower_bound() || results.size() < ef) {
        frontier.push({d, nb});
        if (admit(nb)) {
          results.push({d, nb});
          while (results.size() > ef) results.pop();
        }
      }
    }
  }

  std::vector<Cand> out(results.size());
  for (std::size_t i = results.size(); i-- > 0;) {
    out[i] = results.top();
    results.pop();
  }
  return out;
}

}  // namespace vdb::beam_ref

#endif  // VDB_TESTS_BEAM_SEARCH_REFERENCE_H_
