#include "index/bsp_forest.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "core/topk.h"

namespace vdb {

Status BspForest::BuildForest(std::size_t num_trees, std::size_t leaf_size,
                              std::uint64_t seed) {
  if (num_trees == 0) return Status::InvalidArgument("num_trees must be > 0");
  leaf_size_ = std::max<std::size_t>(leaf_size, 1);
  trees_.assign(num_trees, {});
  Rng rng(seed);
  for (auto& tree : trees_) {
    tree.points.resize(TotalRows());
    std::iota(tree.points.begin(), tree.points.end(), 0u);
    BuildNode(&tree, 0, static_cast<std::uint32_t>(tree.points.size()), 0,
              &rng);
  }
  return Status::Ok();
}

std::int32_t BspForest::BuildNode(Tree* tree, std::uint32_t lo,
                                  std::uint32_t hi, std::size_t depth,
                                  Rng* rng) {
  std::int32_t node_id = static_cast<std::int32_t>(tree->nodes.size());
  tree->nodes.emplace_back();

  auto make_leaf = [&] {
    Node& leaf = tree->nodes[node_id];
    leaf.left = leaf.right = -1;
    leaf.start = lo;
    leaf.end = hi;
    return node_id;
  };

  if (hi - lo <= leaf_size_ || depth > 40) return make_leaf();

  Node proto;
  std::vector<float> projections;
  if (!ChooseSplit(tree, lo, hi, depth, rng, &proto, &projections)) {
    return make_leaf();
  }

  // Partition points by projection against the threshold.
  std::vector<std::uint32_t> left_pts, right_pts;
  left_pts.reserve(hi - lo);
  right_pts.reserve(hi - lo);
  for (std::uint32_t i = lo; i < hi; ++i) {
    if (projections[i - lo] < proto.threshold) {
      left_pts.push_back(tree->points[i]);
    } else {
      right_pts.push_back(tree->points[i]);
    }
  }
  if (left_pts.empty() || right_pts.empty()) return make_leaf();
  std::copy(left_pts.begin(), left_pts.end(), tree->points.begin() + lo);
  std::copy(right_pts.begin(), right_pts.end(),
            tree->points.begin() + lo + left_pts.size());

  std::uint32_t mid = lo + static_cast<std::uint32_t>(left_pts.size());
  // Recursion may reallocate nodes; write fields afterwards via index.
  std::int32_t left_id = BuildNode(tree, lo, mid, depth + 1, rng);
  std::int32_t right_id = BuildNode(tree, mid, hi, depth + 1, rng);
  Node& node = tree->nodes[node_id];
  node.split = proto.split;
  node.threshold = proto.threshold;
  node.left = left_id;
  node.right = right_id;
  return node_id;
}

Status BspForest::SearchImpl(const float* query, const SearchParams& params,
                             std::vector<Neighbor>* out,
                             SearchStats* stats) const {
  const int budget = params.max_leaf_visits > 0 ? params.max_leaf_visits
                                                : default_leaf_visits_;
  // Best-first over (lower bound, tree, node), FLANN-style: descend to the
  // nearest leaf, enqueueing far children with the accumulated squared
  // margin as their bound; stop after `budget` leaves.
  struct Entry {
    float bound;
    std::uint32_t tree;
    std::int32_t node;
    bool operator>(const Entry& o) const { return bound > o.bound; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  for (std::uint32_t t = 0; t < trees_.size(); ++t) {
    if (!trees_[t].nodes.empty()) pq.push({0.0f, t, 0});
  }

  TopK top(params.k);
  Bitset seen(TotalRows());
  int leaves = 0;
  while (!pq.empty() && leaves < budget) {
    Entry e = pq.top();
    pq.pop();
    const Tree& tree = trees_[e.tree];
    const Node* node = &tree.nodes[e.node];
    float bound = e.bound;
    while (node->left >= 0) {
      if (stats != nullptr) ++stats->hops;
      float margin = Margin(tree, *node, query);
      std::int32_t near = margin < 0.0f ? node->left : node->right;
      std::int32_t far = margin < 0.0f ? node->right : node->left;
      pq.push({bound + margin * margin, e.tree, far});
      node = &tree.nodes[near];
    }
    ++leaves;
    if (stats != nullptr) ++stats->nodes_visited;
    for (std::uint32_t i = node->start; i < node->end; ++i) {
      std::uint32_t idx = tree.points[i];
      if (seen.Test(idx)) continue;
      seen.Set(idx);
      if (!Admissible(idx, params, stats)) continue;
      float dist = scorer_.Distance(query, vector(idx));
      if (stats != nullptr) ++stats->distance_comps;
      top.Push(label(idx), dist);
    }
  }
  *out = top.Take();
  return Status::Ok();
}

std::size_t BspForest::TotalLeaves() const {
  std::size_t leaves = 0;
  for (const auto& tree : trees_) {
    for (const auto& node : tree.nodes) leaves += node.left < 0;
  }
  return leaves;
}

std::size_t BspForest::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes();
  for (const auto& tree : trees_) {
    bytes += tree.nodes.size() * sizeof(Node);
    bytes += tree.points.size() * sizeof(std::uint32_t);
    bytes += tree.normals.ByteSize();
  }
  return bytes;
}

}  // namespace vdb
