#include "storage/lsm_store.h"

#include <algorithm>

#include "core/failpoint.h"
#include "core/telemetry.h"
#include "core/topk.h"
#include "exec/trace.h"

namespace vdb {

namespace {

/// Composes the caller's predicate with LSM tombstones.
class TombstoneFilter final : public IdFilter {
 public:
  TombstoneFilter(const std::unordered_set<VectorId>* tombstones,
                  const IdFilter* user)
      : tombstones_(tombstones), user_(user) {}
  bool Matches(VectorId id) const override {
    if (tombstones_->contains(id)) return false;
    return user_ == nullptr || user_->Matches(id);
  }

 private:
  const std::unordered_set<VectorId>* tombstones_;
  const IdFilter* user_;
};

}  // namespace

Result<std::unique_ptr<LsmVectorStore>> LsmVectorStore::Create(
    std::size_t dim, LsmOptions opts) {
  if (!opts.factory) {
    return Status::InvalidArgument("lsm: index factory is required");
  }
  if (dim == 0) return Status::InvalidArgument("lsm: dim must be positive");
  auto store = std::unique_ptr<LsmVectorStore>(
      new LsmVectorStore(dim, std::move(opts)));
  VDB_ASSIGN_OR_RETURN(store->scorer_,
                       Scorer::Create(store->opts_.metric, dim));
  return store;
}

Status LsmVectorStore::Insert(VectorId id, const float* vec) {
  if (live_ids_.contains(id)) return Status::AlreadyExists("id exists");
  VDB_RETURN_IF_ERROR(memtable_.Put(id, vec));
  live_ids_.insert(id);
  tombstones_.erase(id);  // re-insert after delete is allowed
  if (memtable_.live_count() >= opts_.memtable_limit) {
    VDB_RETURN_IF_ERROR(Flush());
  }
  return Status::Ok();
}

Status LsmVectorStore::Delete(VectorId id) {
  if (!live_ids_.contains(id)) return Status::NotFound("id not present");
  live_ids_.erase(id);
  if (memtable_.Contains(id)) {
    return memtable_.Delete(id);
  }
  tombstones_.insert(id);
  return Status::Ok();
}

bool LsmVectorStore::Contains(VectorId id) const {
  return live_ids_.contains(id);
}

std::size_t LsmVectorStore::MemoryBytes() const {
  std::size_t bytes = memtable_.MemoryBytes() +
                      (live_ids_.size() + tombstones_.size()) *
                          sizeof(VectorId);
  for (const Segment& seg : segments_) {
    bytes += seg.data.ByteSize() + seg.ids.size() * sizeof(VectorId) +
             seg.index->MemoryBytes();
  }
  return bytes;
}

Status LsmVectorStore::BuildSegment(FloatMatrix&& data,
                                    std::vector<VectorId>&& ids) {
  Segment seg;
  seg.data = std::move(data);
  seg.ids = std::move(ids);
  seg.index = opts_.factory();
  if (seg.index == nullptr) return Status::Internal("factory returned null");
  VDB_RETURN_IF_ERROR(seg.index->Build(seg.data, seg.ids));
  segments_.push_back(std::move(seg));
  return Status::Ok();
}

Status LsmVectorStore::Flush() {
  if (memtable_.live_count() == 0) return Status::Ok();
  if (FailpointFires("lsm.flush.fail")) {
    // Fails *before* touching state: the memtable stays searchable and a
    // retry can succeed — flush must be all-or-nothing.
    return Status::IoError("injected failure: lsm.flush.fail");
  }
  FloatMatrix data;
  std::vector<VectorId> ids;
  memtable_.Snapshot(&data, &ids);
  VDB_RETURN_IF_ERROR(BuildSegment(std::move(data), std::move(ids)));
  memtable_ = VectorStore(dim_);
  ++flushes_;
  static Counter& flush_count =
      Registry::Global().GetCounter("vdb_lsm_flushes_total");
  flush_count.Inc();
  if (segments_.size() >= opts_.compact_at_segments) {
    VDB_RETURN_IF_ERROR(Compact());
  }
  return Status::Ok();
}

Status LsmVectorStore::Compact() {
  if (segments_.empty()) return Status::Ok();
  if (FailpointFires("lsm.compact.fail")) {
    return Status::IoError("injected failure: lsm.compact.fail");
  }
  std::size_t total = 0;
  for (const auto& seg : segments_) total += seg.ids.size();
  FloatMatrix merged(0, dim_);
  merged.Reserve(total);
  std::vector<VectorId> ids;
  ids.reserve(total);
  for (const auto& seg : segments_) {
    for (std::size_t r = 0; r < seg.ids.size(); ++r) {
      if (tombstones_.contains(seg.ids[r])) continue;
      merged.AppendRow(seg.data.row(r), dim_);
      ids.push_back(seg.ids[r]);
    }
  }
  segments_.clear();
  tombstones_.clear();
  ++compactions_;
  static Counter& compaction_count =
      Registry::Global().GetCounter("vdb_lsm_compactions_total");
  compaction_count.Inc();
  if (ids.empty()) return Status::Ok();
  return BuildSegment(std::move(merged), std::move(ids));
}

Status LsmVectorStore::Search(const float* query, const SearchParams& params,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  TombstoneFilter filter(&tombstones_, params.filter);
  SearchParams inner = params;
  inner.filter = &filter;
  // Always single-stage (visit-first): deleted rows must stay *traversable*
  // in graph segments — blocking them would disconnect the graph (the
  // online-blocking failure mode of §2.3) and silently lose live results —
  // while never appearing in results. The user's own predicate composes
  // into the same filter; callers wanting block-first semantics should
  // query a compacted store.
  inner.filter_mode = FilterMode::kVisitFirst;

  std::vector<std::vector<Neighbor>> parts;
  // Memtable: brute-force similarity projection (always fresh).
  {
    TraceScope span(params.trace, "lsm_memtable_scan");
    TopK top(params.k);
    for (VectorId id : memtable_.LiveIds()) {
      if (params.filter != nullptr) {
        if (stats != nullptr) ++stats->filter_checks;
        if (!params.filter->Matches(id)) continue;
      }
      float dist = scorer_.Distance(query, memtable_.Get(id));
      if (stats != nullptr) ++stats->distance_comps;
      top.Push(id, dist);
    }
    parts.push_back(top.Take());
  }
  static Counter& segment_searches =
      Registry::Global().GetCounter("vdb_lsm_segment_searches_total");
  for (const auto& seg : segments_) {
    std::vector<Neighbor> part;
    segment_searches.Inc();
    VDB_RETURN_IF_ERROR(seg.index->Search(query, inner, &part, stats));
    parts.push_back(std::move(part));
  }
  *out = MergeTopK(parts, params.k);
  return Status::Ok();
}

}  // namespace vdb
