#include "index/index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "core/telemetry.h"
#include "exec/trace.h"

namespace vdb {

namespace {

/// Flushes the per-query stats delta into the global registry. All
/// references are function-local statics: the registry mutex is taken
/// once per process, after which every search pays only relaxed atomic
/// adds on per-thread stripes (the acceptance bar: no mutex on Knn).
void FlushSearchStats(const SearchStats& delta, double seconds) {
  auto& reg = Registry::Global();
  static Counter& dist = reg.GetCounter("vdb_index_distance_comps_total");
  static Counter& code = reg.GetCounter("vdb_index_code_comps_total");
  static Counter& nodes = reg.GetCounter("vdb_index_nodes_visited_total");
  static Counter& hops = reg.GetCounter("vdb_index_hops_total");
  static Counter& io = reg.GetCounter("vdb_index_io_reads_total");
  static Counter& filt = reg.GetCounter("vdb_index_filter_checks_total");
  static Histogram& lat = reg.GetHistogram("vdb_index_search_seconds");
  if (delta.distance_comps != 0) dist.Inc(delta.distance_comps);
  if (delta.code_comps != 0) code.Inc(delta.code_comps);
  if (delta.nodes_visited != 0) nodes.Inc(delta.nodes_visited);
  if (delta.hops != 0) hops.Inc(delta.hops);
  if (delta.io_reads != 0) io.Inc(delta.io_reads);
  if (delta.filter_checks != 0) filt.Inc(delta.filter_checks);
  lat.Observe(seconds);
}

SearchStats Delta(const SearchStats& after, const SearchStats& before) {
  SearchStats d;
  d.distance_comps = after.distance_comps - before.distance_comps;
  d.code_comps = after.code_comps - before.code_comps;
  d.nodes_visited = after.nodes_visited - before.nodes_visited;
  d.hops = after.hops - before.hops;
  d.io_reads = after.io_reads - before.io_reads;
  d.filter_checks = after.filter_checks - before.filter_checks;
  d.shards_failed = after.shards_failed - before.shards_failed;
  d.shard_retries = after.shard_retries - before.shard_retries;
  d.partial = after.partial;
  return d;
}

}  // namespace

Status VectorIndex::Add(const float*, VectorId) {
  return Status::Unsupported(Name() + ": incremental add not supported");
}

Status VectorIndex::ScanRows(const RowFn& fn, SearchStats*) const {
  const VectorStore* rows = resident_rows();
  if (rows == nullptr) return Status::Unsupported(Name() + ": no row scan");
  rows->ForEachLive(fn);
  return Status::Ok();
}

Status VectorIndex::ReadRows(std::span<const VectorId> ids, const RowFn& fn,
                             SearchStats* stats) const {
  if (const VectorStore* rows = resident_rows()) {
    for (VectorId id : ids) {
      if (const float* vec = rows->Get(id)) fn(id, vec);
    }
    return Status::Ok();
  }
  std::unordered_set<VectorId> wanted;
  for (VectorId id : ids) {
    if (row_ids().LiveRow(id) != RowIds::kNoRow) wanted.insert(id);
  }
  if (wanted.empty()) return Status::Ok();
  return ScanRows(
      [&](VectorId id, const float* vec) {
        if (wanted.contains(id)) fn(id, vec);
      },
      stats);
}

Status VectorIndex::RangeSearch(const float*, float, std::vector<Neighbor>*,
                                SearchStats*) const {
  return Status::Unsupported(Name() + ": range search not supported");
}

Status VectorIndex::Search(const float* query, const SearchParams& params,
                           std::vector<Neighbor>* out,
                           SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  if (params.k == 0) return Status::Ok();
  if (params.DeadlineExpired()) {
    // Doomed query: the client's deadline passed (typically while the
    // request waited in a serving-layer run queue) — don't compute it.
    return Status::DeadlineExceeded("query deadline expired before search");
  }

  // Callers may accumulate one SearchStats across many queries, so the
  // registry flush works on the delta this call produced.
  SearchStats local;
  SearchStats* st = stats != nullptr ? stats : &local;
  const SearchStats before = *st;
  // The span name costs a virtual call and a heap string: untraced
  // searches skip it.
  TraceScope span(params.trace, params.trace != nullptr
                                    ? "index_search:" + Name()
                                    : std::string());
  const auto start = std::chrono::steady_clock::now();

  Status status;
  if (params.filter != nullptr &&
      params.filter_mode == FilterMode::kPostFilter) {
    // Post-filtering (§2.3): run the scan unfiltered with amplified k, then
    // apply the predicate. May return fewer than k results — that deficit
    // is the phenomenon E4 measures.
    SearchParams inner = params;
    inner.filter = nullptr;
    inner.filter_mode = FilterMode::kNone;
    float amp = std::max(params.post_filter_amplification, 1.0f);
    inner.k = static_cast<std::size_t>(
        std::ceil(static_cast<double>(params.k) * amp));
    std::vector<Neighbor> raw;
    status = SearchImpl(query, inner, &raw, st);
    if (status.ok()) {
      TraceScope filter_span(params.trace, "post_filter");
      *out = FilterNeighbors(raw, *params.filter, params.k, st);
      filter_span.Note("kept", std::to_string(out->size()));
    }
  } else {
    SearchParams inner = params;
    if (inner.filter == nullptr) inner.filter_mode = FilterMode::kNone;
    status = SearchImpl(query, inner, out, st);
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const SearchStats delta = Delta(*st, before);
  FlushSearchStats(delta, seconds);
  span.RecordStats(delta);
  return status;
}

std::vector<Neighbor> FilterNeighbors(const std::vector<Neighbor>& results,
                                      const IdFilter& filter, std::size_t k,
                                      SearchStats* stats) {
  std::vector<Neighbor> kept;
  kept.reserve(std::min(k, results.size()));
  for (const auto& n : results) {
    if (stats != nullptr) ++stats->filter_checks;
    if (filter.Matches(n.id)) {
      kept.push_back(n);
      if (kept.size() >= k) break;
    }
  }
  return kept;
}

}  // namespace vdb
