#include "exec/executor.h"

#include <algorithm>

#include "core/topk.h"
#include "exec/trace.h"

namespace vdb {

namespace {

/// Wraps predicate bitmask evaluation in a trace span.
Result<Bitset> EvaluatePredicate(const Predicate& pred,
                                 const AttributeStore& attrs,
                                 QueryTrace* trace) {
  TraceScope span(trace, "predicate_filter");
  VDB_ASSIGN_OR_RETURN(Bitset bits, pred.Evaluate(attrs));
  span.Note("matching_rows", std::to_string(bits.Count()));
  return bits;
}

}  // namespace

bool PrunedKey(const CollectionView& view, const Predicate& pred,
               std::int64_t* key) {
  std::string column;
  AttrValue value;
  if (view.partition_column.empty() ||
      !pred.AsSingleEquality(&column, &value) ||
      column != view.partition_column || TypeOf(value) != AttrType::kInt64) {
    return false;
  }
  *key = std::get<std::int64_t>(value);
  return true;
}

std::size_t LiveRows(const CollectionView& view) {
  std::size_t live = view.growing != nullptr ? view.growing->live_count() : 0;
  for (const Segment& seg : view.segments) live += seg.index->Size();
  return live;
}

template <typename SearchSegment>
Status HybridExecutor::SearchSegments(const float* query,
                                      const SearchParams& params,
                                      const IdFilter* growing_filter,
                                      SearchSegment&& search,
                                      std::vector<Neighbor>* out,
                                      SearchStats* stats) const {
  const bool growing =
      view_.growing != nullptr && view_.growing->total_rows() > 0;
  if (view_.segments.size() == 1 && !growing) {
    return search(view_.segments.front(), out);  // a clean collection
  }
  std::vector<std::vector<Neighbor>> parts(view_.segments.size());
  for (std::size_t s = 0; s < view_.segments.size(); ++s) {
    VDB_RETURN_IF_ERROR(search(view_.segments[s], &parts[s]));
  }
  if (growing) {
    TraceScope span(params.trace, "growing_scan");
    TopK top(params.k);
    view_.growing->ForEachLive([&](VectorId id, const float* vec) {
      if (growing_filter != nullptr) {
        if (stats != nullptr) ++stats->filter_checks;
        if (!growing_filter->Matches(id)) return;
      }
      float dist = view_.scorer->Distance(query, vec);
      if (stats != nullptr) ++stats->distance_comps;
      top.Push(id, dist);
    });
    parts.push_back(top.Take());
  }
  if (parts.size() == 1) {
    *out = std::move(parts.front());
  } else {
    *out = MergeTopK(parts, params.k);
  }
  return Status::Ok();
}

Status HybridExecutor::Search(const float* query, const SearchParams& params,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  return SearchSegments(
      query, params, params.filter,
      [&](const Segment& seg, std::vector<Neighbor>* part) {
        return seg.index->Search(query, params, part, stats);
      },
      out, stats);
}

Status HybridExecutor::BruteForce(const Predicate& pred, const float* query,
                                  const SearchParams& params,
                                  std::vector<Neighbor>* out,
                                  ExecStats* stats) const {
  VDB_ASSIGN_OR_RETURN(Bitset bits,
                       EvaluatePredicate(pred, *view_.attrs, params.trace));
  if (stats != nullptr) {
    stats->bitmask_rows += view_.attrs->NumRows();
    stats->matching_rows += bits.Count();
  }
  TraceScope scan_span(params.trace, "brute_force_scan");
  TopK top(params.k);
  VDB_RETURN_IF_ERROR(ForEachLiveRow(
      view_,
      [&](VectorId id, const float* vec) {
        // A row the bitmask does not cover (a multi-vector member: it
        // has no attributes) matches nothing, as in the index plans.
        if (id >= bits.size() || !bits.Test(static_cast<std::size_t>(id))) {
          return;
        }
        float dist = view_.scorer->Distance(query, vec);
        if (stats != nullptr) ++stats->search.distance_comps;
        top.Push(id, dist);
      },
      stats != nullptr ? &stats->search : nullptr));
  *out = top.Take();
  return Status::Ok();
}

Status HybridExecutor::Execute(const HybridPlan& plan, const Predicate& pred,
                               const float* query, const SearchParams& params,
                               std::vector<Neighbor>* out,
                               ExecStats* stats) const {
  if (view_.scorer == nullptr || view_.attrs == nullptr) {
    return Status::FailedPrecondition("incomplete collection view");
  }
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  if (plan.kind == PlanKind::kBruteForceHybrid) {
    return BruteForce(pred, query, params, out, stats);
  }
  if (view_.segments.empty()) {
    return Status::FailedPrecondition("plan requires an index");
  }
  SearchStats* search_stats = stats != nullptr ? &stats->search : nullptr;
  PredicateIdFilter pred_filter(&pred, view_.attrs);
  SearchParams p = params;
  p.filter = &pred_filter;

  switch (plan.kind) {
    case PlanKind::kBruteForceHybrid:
      break;  // handled above

    case PlanKind::kPreFilterIndexScan: {
      VDB_ASSIGN_OR_RETURN(
          Bitset bits, EvaluatePredicate(pred, *view_.attrs, params.trace));
      if (stats != nullptr) {
        stats->bitmask_rows += view_.attrs->NumRows();
        stats->matching_rows += bits.Count();
      }
      BitsetIdFilter filter(&bits);
      p.filter = &filter;
      p.filter_mode = FilterMode::kBlockFirst;
      return Search(query, p, out, search_stats);
    }

    case PlanKind::kPostFilterIndexScan: {
      p.filter_mode = FilterMode::kPostFilter;
      p.post_filter_amplification = std::max(plan.amplification, 1.0f);
      VDB_RETURN_IF_ERROR(Search(query, p, out, search_stats));
      // k-complete: a pass keeps only what its a·k candidates yield, so it
      // can come back short (§2.6(3)). Refill with a doubled `a` until k
      // rows survive; once a pass adds no row or a·k covers every live
      // row, the exact plan answers.
      const double live = static_cast<double>(LiveRows(view_));
      bool exhausted = false;
      while (out->size() < params.k) {
        if (stats != nullptr) ++stats->refills;
        TraceScope refill(params.trace, "post_filter_refill");
        if (exhausted ||
            static_cast<double>(params.k) * p.post_filter_amplification >=
                live) {
          refill.Note("plan", "brute-force");
          return BruteForce(pred, query, params, out, stats);
        }
        p.post_filter_amplification *= 2.0f;
        refill.Note("amplification",
                    std::to_string(p.post_filter_amplification));
        const std::size_t kept = out->size();
        VDB_RETURN_IF_ERROR(Search(query, p, out, search_stats));
        exhausted = out->size() <= kept;
      }
      return Status::Ok();
    }

    case PlanKind::kVisitFirstIndexScan:
      p.filter_mode = FilterMode::kVisitFirst;
      return Search(query, p, out, search_stats);

    case PlanKind::kPartitionPruned: {
      if (view_.partition_column.empty()) {
        return Status::FailedPrecondition("plan requires a partition column");
      }
      std::int64_t key = 0;
      if (!PrunedKey(view_, pred, &key)) {
        return Status::InvalidArgument(
            "partition-pruned plan needs `partition_column = <int>`");
      }
      // A segment of the key holds only matching rows, so it is searched
      // unfiltered, and the others hold none; the growing rows still need
      // the predicate.
      return SearchSegments(
          query, params, &pred_filter,
          [&](const Segment& seg, std::vector<Neighbor>* part) {
            if (seg.key != key) {
              part->clear();
              return Status::Ok();
            }
            return seg.index->Search(query, params, part, search_stats);
          },
          out, search_stats);
    }
  }
  return Status::Internal("bad plan kind");
}

}  // namespace vdb
