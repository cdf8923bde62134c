#include "index/knn_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/topk.h"
#include "index/graph_util.h"
#include "index/kd_tree.h"

namespace vdb {

Status KnnGraphIndex::Build(FloatMatrix data,
                            std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  if (opts_.graph_degree == 0) {
    return Status::InvalidArgument("graph_degree must be > 0");
  }
  const std::size_t n = TotalRows();
  lists_.assign(n, {});
  Rng rng(opts_.seed);

  if (opts_.init == KnnGraphInit::kKdForest && n > opts_.graph_degree) {
    InitFromKdForest();
  } else {
    InitRandom(&rng);
  }

  // NN-Descent: repeatedly join each node's neighborhood against itself,
  // keeping the best `graph_degree` per node; converges when an iteration
  // stops improving lists.
  for (int iter = 0; iter < opts_.nn_descent_iters; ++iter) {
    std::size_t updates = NnDescentIteration(&rng);
    if (updates == 0) break;
  }

  // Final adjacency = forward kNN edges plus reverse edges (capped at
  // 2*degree). A pure kNN graph is highly local and best-first search gets
  // stuck in local minima; reverse edges restore the in-links that make
  // the graph traversable (the standard KGraph search graph).
  adjacency_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(lists_[i].begin(), lists_[i].end(),
              [](const Entry& a, const Entry& b) { return a.dist < b.dist; });
    adjacency_[i].reserve(2 * lists_[i].size());
    for (const Entry& e : lists_[i]) adjacency_[i].push_back(e.idx);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const Entry& e : lists_[i]) {
      auto& rev = adjacency_[e.idx];
      if (rev.size() < 2 * opts_.graph_degree &&
          std::find(rev.begin(), rev.end(), static_cast<std::uint32_t>(i)) ==
              rev.end()) {
        rev.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  lists_.clear();
  lists_.shrink_to_fit();

  // A kNN graph is not navigable across well-separated clusters (it falls
  // apart into per-cluster components), so search needs restarts: use at
  // least sqrt(n) spread-out entry points to cover every component whp.
  std::size_t num_entries = std::max<std::size_t>(
      opts_.num_entry_points,
      static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
  num_entries = std::min(num_entries, n);
  entry_points_.clear();
  for (std::size_t e = 0; e < num_entries; ++e) {
    entry_points_.push_back(
        static_cast<std::uint32_t>((e * n) / num_entries));
  }
  return Status::Ok();
}

void KnnGraphIndex::InitRandom(Rng* rng) {
  const std::size_t n = TotalRows();
  for (std::size_t i = 0; i < n; ++i) {
    while (lists_[i].size() < std::min(opts_.graph_degree, n - 1)) {
      std::uint32_t cand = static_cast<std::uint32_t>(rng->Next(n));
      if (cand == i) continue;
      bool dup = false;
      for (const Entry& e : lists_[i]) dup |= (e.idx == cand);
      if (dup) continue;
      lists_[i].push_back(
          {scorer_.Distance(vector(i), vector(cand)), cand, true});
    }
  }
}

void KnnGraphIndex::InitFromKdForest() {
  // EFANNA: seed each node's list with its leaf-mates in a randomized k-d
  // forest (cheap, locality-preserving candidates).
  KdTreeOptions kd;
  kd.metric = opts_.metric;
  kd.num_trees = std::max<std::size_t>(opts_.init_trees, 1);
  kd.leaf_size = opts_.graph_degree + 1;
  kd.seed = opts_.seed;
  KdTreeIndex forest(kd);
  std::vector<VectorId> internal_ids(TotalRows());
  for (std::size_t i = 0; i < internal_ids.size(); ++i) {
    internal_ids[i] = static_cast<VectorId>(i);
  }
  if (!forest.Build(rows_.vectors(), internal_ids).ok()) {
    Rng rng(opts_.seed);
    InitRandom(&rng);
    return;
  }
  SearchParams sp;
  sp.k = opts_.graph_degree + 1;  // +1: the point itself
  sp.max_leaf_visits = static_cast<int>(kd.num_trees);
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    std::vector<Neighbor> near;
    // Best-effort seeding: a node whose probe fails keeps its (empty)
    // list and is filled in by the NN-descent iterations instead.
    if (!forest.Search(vector(i), sp, &near).ok()) continue;
    for (const auto& nb : near) {
      auto cand = static_cast<std::uint32_t>(nb.id);
      if (cand == i) continue;
      UpdateNeighborList(i, cand, nb.dist);
    }
  }
  // Top up short lists with random candidates.
  Rng rng(opts_.seed + 1);
  const std::size_t n = TotalRows();
  for (std::size_t i = 0; i < n; ++i) {
    int guard = 0;
    while (lists_[i].size() < std::min(opts_.graph_degree, n - 1) &&
           guard++ < 100) {
      std::uint32_t cand = static_cast<std::uint32_t>(rng.Next(n));
      if (cand == i) continue;
      UpdateNeighborList(i, cand,
                         scorer_.Distance(vector(i), vector(cand)));
    }
  }
}

bool KnnGraphIndex::UpdateNeighborList(std::uint32_t node, std::uint32_t cand,
                                       float dist) {
  auto& list = lists_[node];
  float worst = -1.0f;
  std::size_t worst_at = 0;
  for (std::size_t j = 0; j < list.size(); ++j) {
    if (list[j].idx == cand) return false;
    if (list[j].dist > worst) {
      worst = list[j].dist;
      worst_at = j;
    }
  }
  if (list.size() < opts_.graph_degree) {
    list.push_back({dist, cand, true});
    return true;
  }
  if (dist < worst) {
    list[worst_at] = {dist, cand, true};
    return true;
  }
  return false;
}

std::size_t KnnGraphIndex::NnDescentIteration(Rng* rng) {
  const std::size_t n = TotalRows();
  // Forward + reverse neighborhoods, split into new/old samples.
  std::vector<std::vector<std::uint32_t>> new_cands(n), old_cands(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t new_taken = 0;
    for (auto& e : lists_[i]) {
      if (e.is_new && new_taken < opts_.sample) {
        new_cands[i].push_back(e.idx);
        new_cands[e.idx].push_back(static_cast<std::uint32_t>(i));
        e.is_new = false;
        ++new_taken;
      } else if (!e.is_new) {
        old_cands[i].push_back(e.idx);
        old_cands[e.idx].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  auto clip = [&](std::vector<std::uint32_t>* v) {
    if (v->size() > 2 * opts_.sample) {
      for (std::size_t j = 0; j < 2 * opts_.sample; ++j) {
        std::size_t pick = j + rng->Next(v->size() - j);
        std::swap((*v)[j], (*v)[pick]);
      }
      v->resize(2 * opts_.sample);
    }
  };

  std::size_t updates = 0;
  for (std::size_t i = 0; i < n; ++i) {
    clip(&new_cands[i]);
    clip(&old_cands[i]);
    // Local join: new x new and new x old pairs.
    const auto& nn = new_cands[i];
    const auto& on = old_cands[i];
    for (std::size_t a = 0; a < nn.size(); ++a) {
      for (std::size_t b = a + 1; b < nn.size(); ++b) {
        std::uint32_t u = nn[a], v = nn[b];
        if (u == v) continue;
        float d = scorer_.Distance(vector(u), vector(v));
        updates += UpdateNeighborList(u, v, d);
        updates += UpdateNeighborList(v, u, d);
      }
      for (std::uint32_t v : on) {
        std::uint32_t u = nn[a];
        if (u == v) continue;
        float d = scorer_.Distance(vector(u), vector(v));
        updates += UpdateNeighborList(u, v, d);
        updates += UpdateNeighborList(v, u, d);
      }
    }
  }
  return updates;
}

Status KnnGraphIndex::SearchImpl(const float* query,
                                 const SearchParams& params,
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

double KnnGraphIndex::GraphRecallVsExact() const {
  const std::size_t n = TotalRows();
  std::size_t hits = 0, total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    TopK top(opts_.graph_degree);
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      top.Push(j, scorer_.Distance(vector(i), vector(j)));
    }
    auto truth = top.Take();
    total += truth.size();
    for (const auto& t : truth) {
      for (std::uint32_t nb : adjacency_[i]) {
        if (nb == t.id) {
          ++hits;
          break;
        }
      }
    }
  }
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

std::size_t KnnGraphIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes();
  for (const auto& adj : adjacency_) bytes += adj.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace vdb
