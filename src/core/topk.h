#ifndef VDB_CORE_TOPK_H_
#define VDB_CORE_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/types.h"

namespace vdb {

/// Bounded max-heap keeping the k smallest-distance neighbors seen so far.
/// This is the "Sort / Top-K" operator of the paper's Figure 1: composing
/// it with similarity projection answers a k-NN query.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) { heap_.reserve(k + 1); }

  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= k_; }

  /// Largest (worst) distance currently kept; +inf when not yet full.
  float WorstDist() const {
    return full() ? heap_.front().dist
                  : std::numeric_limits<float>::infinity();
  }

  /// Returns true if the candidate was kept.
  bool Push(VectorId id, float dist) {
    if (heap_.size() < k_) {
      heap_.push_back({id, dist});
      std::push_heap(heap_.begin(), heap_.end(), ByDist);
      return true;
    }
    if (dist >= heap_.front().dist) return false;
    std::pop_heap(heap_.begin(), heap_.end(), ByDist);
    heap_.back() = {id, dist};
    std::push_heap(heap_.begin(), heap_.end(), ByDist);
    return true;
  }

  /// Destructively extracts results sorted by ascending distance.
  std::vector<Neighbor> Take() {
    std::sort_heap(heap_.begin(), heap_.end(), ByDist);
    return std::move(heap_);
  }

 private:
  static bool ByDist(const Neighbor& a, const Neighbor& b) { return a < b; }

  std::size_t k_;
  std::vector<Neighbor> heap_;
};

/// Merges several per-source top-k lists (each ascending) into one global
/// ascending top-k — the scatter-gather reduce step for distributed search
/// and per-segment collection search.
inline std::vector<Neighbor> MergeTopK(
    const std::vector<std::vector<Neighbor>>& parts, std::size_t k) {
  TopK top(k);
  for (const auto& part : parts) {
    for (const auto& n : part) top.Push(n.id, n.dist);
  }
  return top.Take();
}

}  // namespace vdb

#endif  // VDB_CORE_TOPK_H_
