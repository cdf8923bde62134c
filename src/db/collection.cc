#include "db/collection.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "core/failpoint.h"
#include "core/telemetry.h"
#include "core/topk.h"
#include "exec/batch.h"
#include "exec/trace.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "storage/manifest.h"
#include "storage/serializer.h"

namespace vdb {

namespace {

/// Ids at or above this are internal multi-vector member rows.
constexpr VectorId kInternalIdBase = VectorId{1} << 62;

/// The live rows of `view`, in row order, copied into a build input.
Status CopyRows(const CollectionView& view, std::size_t dim,
                FloatMatrix* data, std::vector<VectorId>* ids) {
  *data = FloatMatrix(LiveRows(view), dim);
  ids->clear();
  ids->reserve(data->rows());
  VDB_RETURN_IF_ERROR(ForEachLiveRow(
      view,
      [&](VectorId id, const float* vec) {
        if (ids->size() < data->rows()) {
          std::copy_n(vec, dim, data->row(ids->size()));
        }
        ids->push_back(id);
      },
      nullptr));
  if (ids->size() != data->rows()) {
    return Status::Corruption("row scan disagrees with the live row count");
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<Collection>> Collection::Create(
    CollectionOptions opts) {
  if (opts.dim == 0) return Status::InvalidArgument("dim must be positive");
  if (opts.embedder != nullptr && opts.embedder->dim() != opts.dim) {
    return Status::InvalidArgument("embedder dim mismatch");
  }
  if (opts.lsm_memtable_limit > 0 && !opts.index_factory) {
    return Status::InvalidArgument("a flush policy requires an index factory");
  }
  auto collection = std::unique_ptr<Collection>(new Collection(std::move(opts)));
  auto& c = *collection;
  VDB_ASSIGN_OR_RETURN(c.scorer_, Scorer::Create(c.opts_.metric, c.opts_.dim));
  c.growing_ = VectorStore(c.opts_.dim);
  for (const auto& [name, type] : c.opts_.attributes) {
    VDB_RETURN_IF_ERROR(c.attrs_.AddColumn(name, type));
  }
  if (!c.opts_.partition_column.empty()) {
    VDB_ASSIGN_OR_RETURN(AttrType type,
                         c.attrs_.ColumnType(c.opts_.partition_column));
    if (type != AttrType::kInt64) {
      return Status::InvalidArgument("partition column must be int64");
    }
  }
  switch (c.opts_.plan_mode) {
    case PlanMode::kCostBased:
      c.optimizer_ = std::make_unique<CostBasedOptimizer>();
      break;
    case PlanMode::kRuleBased:
      c.optimizer_ = std::make_unique<RuleBasedOptimizer>();
      break;
    case PlanMode::kPredefined:
      break;  // no optimizer consulted
  }
  if (!c.opts_.wal_path.empty()) {
    VDB_ASSIGN_OR_RETURN(c.wal_, Wal::Open(c.opts_.wal_path));
  }
  return collection;
}

Result<std::unique_ptr<Collection>> Collection::Open(CollectionOptions opts) {
  std::string wal_path = opts.wal_path;
  opts.wal_path.clear();  // replay + truncate the tail before appending
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<Collection> collection,
                       Create(std::move(opts)));
  if (!wal_path.empty()) VDB_RETURN_IF_ERROR(collection->Reopen(wal_path));
  return collection;
}

Status Collection::Reopen(const std::string& wal_path) {
  std::size_t valid_bytes = 0;
  VDB_RETURN_IF_ERROR(ReplayWalFile(wal_path, nullptr, &valid_bytes));
  // A torn tail (crash mid-append) must go before the log reopens for
  // append — otherwise new records land after garbage and the next
  // replay, which stops at the garbage, can never reach them.
  VDB_RETURN_IF_ERROR(Wal::TruncateTo(wal_path, valid_bytes));
  return AttachWal(wal_path);
}

Status Collection::ReplayWalFile(const std::string& path, std::size_t* applied,
                                 std::size_t* valid_bytes) {
  struct Replayer : Wal::Visitor {
    Collection* c;
    Status status;
    void OnInsert(VectorId id, std::span<const float> vec,
                  const std::vector<AttrBinding>& attrs) override {
      if (!status.ok()) return;
      status = c->InsertInternal(id, vec.data(), attrs, /*log=*/false);
      // Records already absorbed by a checkpoint replay as duplicates:
      // skip them (the checkpoint is a prefix of the log's effects).
      if (status.code() == StatusCode::kAlreadyExists) status = Status::Ok();
    }
    void OnDelete(VectorId id) override {
      if (!status.ok()) return;
      status = c->DeleteInternal(id, /*log=*/false);
      if (status.code() == StatusCode::kNotFound) status = Status::Ok();
    }
  } replayer;
  replayer.c = this;
  VDB_RETURN_IF_ERROR(Wal::Replay(path, &replayer, applied, valid_bytes));
  return replayer.status;
}

Status Collection::AttachWal(const std::string& path) {
  VDB_ASSIGN_OR_RETURN(wal_, Wal::Open(path));
  opts_.wal_path = path;
  return Status::Ok();
}

Status Collection::SyncWal() {
  if (wal_ == nullptr) return Status::Ok();
  return wal_->Sync();
}

Status Collection::InsertInternal(VectorId id, const float* vec,
                                  const std::vector<AttrBinding>& attrs,
                                  bool log) {
  if (Contains(id)) return Status::AlreadyExists("id exists");
  if (log && wal_ != nullptr) {
    VDB_RETURN_IF_ERROR(
        wal_->AppendInsert(id, {vec, opts_.dim}, attrs));
  }
  // The attributes go first: they give the row its partition key.
  if (id < kInternalIdBase) {
    VDB_RETURN_IF_ERROR(attrs_.PutRow(id, attrs));
  }
  // The one branch on the update policy. In place, the row joins the
  // single sealed segment of its partition key when no growing row
  // precedes it and the index can take it. Otherwise, or when the Add
  // fails, it grows.
  const Segment* home = nullptr;
  if (opts_.lsm_memtable_limit == 0 && growing_.live_count() == 0) {
    const std::optional<std::int64_t> key = PartitionKey(id);
    if (SegmentsWithKey(key) == 1) {
      home = &*std::find_if(segments_.begin(), segments_.end(),
                            [key](const Segment& s) { return s.key == key; });
    }
  }
  const bool in_place = home != nullptr && home->index->SupportsAdd();
  Status added = in_place ? home->index->Add(vec, id) : Status::Ok();
  if (!in_place || !added.ok()) VDB_RETURN_IF_ERROR(growing_.Put(id, vec));
  if (!added.ok()) return added;  // still served from the growing rows
  // Out of place: a full growing segment is sealed. Replay and Restore
  // (log == false) leave sealing to BuildIndex or the next live insert.
  if (opts_.lsm_memtable_limit > 0 && log &&
      growing_.live_count() >= opts_.lsm_memtable_limit) {
    return Flush();
  }
  return Status::Ok();
}

Status Collection::Insert(VectorId id, VectorView vec,
                          const std::vector<AttrBinding>& attrs) {
  if (vec.size() != opts_.dim) {
    return Status::InvalidArgument("vector dim mismatch");
  }
  if (id >= kInternalIdBase) {
    return Status::InvalidArgument("ids >= 2^62 are reserved");
  }
  return InsertInternal(id, vec.data(), attrs, /*log=*/true);
}

Status Collection::InsertText(VectorId id, const std::string& text,
                              const std::vector<AttrBinding>& attrs) {
  if (opts_.embedder == nullptr) {
    return Status::FailedPrecondition("collection has no embedding model");
  }
  std::vector<float> vec = opts_.embedder->Embed(text);
  return Insert(id, vec, attrs);
}

Status Collection::InsertEntity(VectorId entity, const FloatMatrix& vecs,
                                const std::vector<AttrBinding>& attrs) {
  if (vecs.empty() || vecs.cols() != opts_.dim) {
    return Status::InvalidArgument("entity vectors must be n x dim, n >= 1");
  }
  if (entity >= kInternalIdBase) {
    return Status::InvalidArgument("ids >= 2^62 are reserved");
  }
  if (entity_vectors_.contains(entity) || Contains(entity)) {
    return Status::AlreadyExists("entity exists");
  }
  VDB_RETURN_IF_ERROR(attrs_.PutRow(entity, attrs));
  std::vector<VectorId>& members = entity_vectors_[entity];
  for (std::size_t v = 0; v < vecs.rows(); ++v) {
    VectorId vid = next_internal_id_++;
    Status status = InsertInternal(vid, vecs.row(v), {}, /*log=*/true);
    if (!status.ok()) {
      entity_vectors_.erase(entity);
      return status;
    }
    members.push_back(vid);
    entity_of_vector_[vid] = entity;
  }
  return Status::Ok();
}

Status Collection::DeleteInternal(VectorId id, bool log) {
  // Entity delete cascades to member vectors.
  auto entity_it = entity_vectors_.find(id);
  if (entity_it != entity_vectors_.end()) {
    for (VectorId vid : entity_it->second) {
      VDB_RETURN_IF_ERROR(DeleteInternal(vid, log));
      entity_of_vector_.erase(vid);
    }
    entity_vectors_.erase(entity_it);
    return Status::Ok();
  }
  // The live row is in exactly one sealed segment or in the growing rows.
  const Segment* holder = HolderOf(id);
  if (holder == nullptr && !growing_.Contains(id)) {
    return Status::NotFound("id not present");
  }
  if (log && wal_ != nullptr) {
    VDB_RETURN_IF_ERROR(wal_->AppendDelete(id));
  }
  if (holder == nullptr) return growing_.Delete(id);
  return holder->index->Remove(id);
}

Status Collection::Delete(VectorId id) { return DeleteInternal(id, true); }

Status Collection::Upsert(VectorId id, VectorView vec,
                          const std::vector<AttrBinding>& attrs) {
  if (vec.size() != opts_.dim) {
    return Status::InvalidArgument("vector dim mismatch");
  }
  if (Contains(id) || entity_vectors_.contains(id)) {
    VDB_RETURN_IF_ERROR(DeleteInternal(id, /*log=*/true));
  }
  return Insert(id, vec, attrs);
}

std::optional<std::int64_t> Collection::PartitionKey(VectorId id) const {
  if (opts_.partition_column.empty()) return 0;
  const auto* column = attrs_.Int64Column(opts_.partition_column);
  if (column == nullptr || id >= column->size()) return std::nullopt;
  return (*column)[id];
}

std::size_t Collection::SegmentsWithKey(
    std::optional<std::int64_t> key) const {
  return static_cast<std::size_t>(
      std::count_if(segments_.begin(), segments_.end(),
                    [key](const Segment& s) { return s.key == key; }));
}

bool Collection::Clean() const {
  if (segments_.empty() || growing_.live_count() != 0) return false;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const VectorIndex& index = *segments_[s].index;
    if (index.row_ids().rows() != index.Size()) return false;
    if (s > 0 && segments_[s].key <= segments_[s - 1].key) return false;
  }
  return true;
}

const Segment* Collection::HolderOf(VectorId id) const {
  for (const Segment& seg : segments_) {
    if (seg.index->row_ids().LiveRow(id) != RowIds::kNoRow) return &seg;
  }
  return nullptr;
}

Result<std::vector<Segment>> Collection::BuildSegments(
    const CollectionView& rows) const {
  FloatMatrix data;
  std::vector<VectorId> ids;
  VDB_RETURN_IF_ERROR(CopyRows(rows, opts_.dim, &data, &ids));
  // Row positions of each partition key, in row order; without a partition
  // column every row has key 0.
  std::map<std::optional<std::int64_t>, std::vector<std::size_t>> keys;
  if (opts_.partition_column.empty()) {
    if (!ids.empty()) keys.try_emplace(0);
  } else {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      keys[PartitionKey(ids[i])].push_back(i);
    }
  }
  std::vector<Segment> segs;
  for (const auto& [key, positions] : keys) {
    Segment& seg = segs.emplace_back();
    seg.key = key;
    seg.index = opts_.index_factory();
    if (seg.index == nullptr) return Status::Internal("factory returned null");
    if (keys.size() == 1) {  // one key: the rows go in as they are
      VDB_RETURN_IF_ERROR(seg.index->Build(std::move(data), ids));
      break;
    }
    FloatMatrix part(positions.size(), opts_.dim);
    std::vector<VectorId> part_ids;
    part_ids.reserve(positions.size());
    for (std::size_t i : positions) {
      std::copy_n(data.row(i), opts_.dim, part.row(part_ids.size()));
      part_ids.push_back(ids[i]);
    }
    VDB_RETURN_IF_ERROR(seg.index->Build(std::move(part), part_ids));
  }
  return segs;
}

Status Collection::BuildIndex() {
  if (!opts_.index_factory) {
    return Status::FailedPrecondition("no index factory configured");
  }
  if (Clean()) return Status::Ok();
  if (LiveRows(View()) == 0) {
    return Status::FailedPrecondition("collection is empty");
  }
  VDB_ASSIGN_OR_RETURN(segments_, BuildSegments(View()));
  growing_ = VectorStore(opts_.dim);
  return Status::Ok();
}

Status Collection::Flush() {
  if (growing_.live_count() == 0) return Status::Ok();
  if (!opts_.index_factory) {
    return Status::FailedPrecondition("no index factory configured");
  }
  if (FailpointFires("lsm.flush.fail")) {
    // Fails *before* touching state: the growing rows stay searchable and
    // a retry can succeed — flush must be all-or-nothing.
    return Status::IoError("injected failure: lsm.flush.fail");
  }
  CollectionView growing = View();
  growing.segments = {};
  VDB_ASSIGN_OR_RETURN(std::vector<Segment> segs, BuildSegments(growing));
  bool compact = false;
  for (Segment& seg : segs) {
    segments_.push_back(std::move(seg));
    compact |= SegmentsWithKey(segments_.back().key) >=
               opts_.lsm_compact_at_segments;
  }
  growing_ = VectorStore(opts_.dim);
  static Counter& flushes =
      Registry::Global().GetCounter("vdb_lsm_flushes_total");
  flushes.Inc();
  if (compact) return Compact();
  return Status::Ok();
}

Status Collection::Compact() {
  if (segments_.empty()) return Status::Ok();
  if (FailpointFires("lsm.compact.fail")) {
    return Status::IoError("injected failure: lsm.compact.fail");
  }
  CollectionView sealed = View();
  sealed.growing = nullptr;
  VDB_ASSIGN_OR_RETURN(segments_, BuildSegments(sealed));
  static Counter& compactions =
      Registry::Global().GetCounter("vdb_lsm_compactions_total");
  compactions.Inc();
  return Status::Ok();
}

Status Collection::Checkpoint(const std::string& path) const {
  BinaryWriter w(kCheckpointMagic);
  w.U64(opts_.dim);
  // The growing rows, where format 1 put every live row.
  CollectionView growing = View();
  growing.segments = {};
  FloatMatrix data;
  std::vector<VectorId> ids;
  VDB_RETURN_IF_ERROR(CopyRows(growing, opts_.dim, &data, &ids));
  w.Matrix(data);
  w.U64Vector(ids);
  attrs_.Save(&w);
  w.U64(entity_vectors_.size());
  for (const auto& [entity, members] : entity_vectors_) {
    w.U64(entity);
    w.U64Vector(members);
  }
  w.U64(next_internal_id_);
  // Format 2 adds the sealed segments, oldest first: key, codec magic,
  // structure (0 and an empty block without a codec), rows.
  w.U64(segments_.size());
  for (const Segment& seg : segments_) {
    w.U8(seg.key.has_value() ? 1 : 0);
    w.U64(static_cast<std::uint64_t>(seg.key.value_or(0)));
    const std::uint32_t magic = seg.index->CodecMagic();
    w.U32(magic);
    w.Block([&] { seg.index->SaveStructure(&w, /*with_rows=*/false); });
    if (magic != 0) {  // the structure refers to every row, tombstones too
      WriteRowBlock(&w, *seg.index->resident_rows());
      continue;
    }
    // A rebuild reads only the live rows, so no tombstones.
    const CollectionView rows{nullptr, &attrs_, {&seg, 1}, &scorer_, {}};
    VDB_RETURN_IF_ERROR(CopyRows(rows, opts_.dim, &data, &ids));
    WriteRowBlock(&w, data, ids);
  }
  return w.WriteTo(path);
}

Result<std::unique_ptr<Collection>> Collection::Restore(
    CollectionOptions opts, const std::string& path,
    std::size_t* rows_rebuilt) {
  std::string wal_path = opts.wal_path;
  opts.wal_path.clear();
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<Collection> c, Create(std::move(opts)));

  VDB_ASSIGN_OR_RETURN(BinaryReader r,
                       BinaryReader::Open(path, kCheckpointMagic));
  VDB_ASSIGN_OR_RETURN(std::uint64_t dim, r.U64());
  if (dim != c->opts_.dim) {
    return Status::InvalidArgument("checkpoint dim mismatch");
  }
  VDB_ASSIGN_OR_RETURN(FloatMatrix growing, r.Matrix());
  VDB_ASSIGN_OR_RETURN(std::vector<std::uint64_t> growing_ids, r.U64Vector());
  if (growing_ids.size() != growing.rows() || growing.cols() != dim) {
    return Status::Corruption("checkpoint ids/rows mismatch");
  }
  VDB_RETURN_IF_ERROR(c->attrs_.Load(&r));
  VDB_ASSIGN_OR_RETURN(std::uint64_t entities, r.U64());
  for (std::uint64_t e = 0; e < entities; ++e) {
    VDB_ASSIGN_OR_RETURN(std::uint64_t entity, r.U64());
    VDB_ASSIGN_OR_RETURN(std::vector<std::uint64_t> members, r.U64Vector());
    for (VectorId member : members) c->entity_of_vector_[member] = entity;
    c->entity_vectors_[entity] = std::move(members);
  }
  VDB_ASSIGN_OR_RETURN(c->next_internal_id_, r.U64());

  // A format-1 checkpoint ends here: every row grows, and RecoveryManager
  // rebuilds.
  std::size_t rebuilt = 0;
  if (r.Remaining() > 0) {
    VDB_ASSIGN_OR_RETURN(std::uint64_t segments, r.U64());
    for (std::uint64_t s = 0; s < segments; ++s) {
      VDB_ASSIGN_OR_RETURN(std::uint8_t has_key, r.U8());
      VDB_ASSIGN_OR_RETURN(std::uint64_t key, r.U64());
      VDB_ASSIGN_OR_RETURN(std::uint32_t magic, r.U32());
      VDB_ASSIGN_OR_RETURN(BinaryReader structure, r.Block());
      VectorStore rows(dim);
      VDB_RETURN_IF_ERROR(ReadRowBlock(&r, &rows));
      if (rows.dim() != dim) return Status::Corruption("segment dim mismatch");
      VDB_RETURN_IF_ERROR(c->RestoreSegment(
          has_key != 0 ? std::optional(static_cast<std::int64_t>(key))
                       : std::nullopt,
          std::move(rows), magic, &structure, &rebuilt));
    }
  }
  if (r.Remaining() > 0) return Status::Corruption("trailing checkpoint bytes");
  // The growing rows follow the sealed ones in row order.
  for (std::size_t i = 0; i < growing_ids.size(); ++i) {
    if (c->HolderOf(growing_ids[i]) != nullptr) {
      return Status::Corruption("checkpoint holds a row twice");
    }
    VDB_RETURN_IF_ERROR(c->growing_.Put(growing_ids[i], growing.row(i)));
  }
  for (const auto& [entity, members] : c->entity_vectors_) {
    for (VectorId member : members) {
      if (!c->Contains(member)) {
        return Status::Corruption("entity member missing from snapshot");
      }
    }
  }

  if (!wal_path.empty()) VDB_RETURN_IF_ERROR(c->Reopen(wal_path));
  if (rows_rebuilt != nullptr) *rows_rebuilt = rebuilt;
  return c;
}

Status Collection::RestoreSegment(std::optional<std::int64_t> key,
                                  VectorStore rows, std::uint32_t magic,
                                  BinaryReader* structure,
                                  std::size_t* rebuilt) {
  Status valid = Status::Ok();
  rows.ForEachLive([&](VectorId id, const float*) {
    if (valid.ok() && (PartitionKey(id) != key || Contains(id))) {
      valid = Status::Corruption("segment row off its key, or held twice");
    }
  });
  VDB_RETURN_IF_ERROR(valid);
  if (!opts_.index_factory) {  // no family to index them: the rows grow
    rows.ForEachLive([&](VectorId id, const float* vec) {
      if (valid.ok()) valid = growing_.Put(id, vec);
    });
    return valid;
  }
  Segment seg{opts_.index_factory(), key};
  if (seg.index == nullptr) return Status::Internal("factory returned null");
  if (magic != 0 && magic == seg.index->CodecMagic()) {
    VDB_RETURN_IF_ERROR(seg.index->LoadStructure(structure, &rows));
    segments_.push_back(std::move(seg));
    return Status::Ok();
  }
  // No codec, or another family's: rebuild this segment from its live
  // rows, all of one key (none left: nothing to index).
  VDB_ASSIGN_OR_RETURN(
      std::vector<Segment> built,
      BuildSegments({&rows, &attrs_, {}, &scorer_, opts_.partition_column}));
  for (Segment& seg : built) segments_.push_back(std::move(seg));
  *rebuilt += rows.live_count();
  return Status::Ok();
}

CollectionView Collection::View() const {
  return {&growing_, &attrs_, segments_, &scorer_, opts_.partition_column};
}

template <typename Fetch>
Status Collection::FetchEntities(std::size_t k, Fetch&& fetch,
                                 std::vector<Neighbor>* out) const {
  if (entity_vectors_.empty()) return fetch(k, out);
  const std::size_t live = LiveRows(View());
  std::vector<Neighbor> raw;
  std::unordered_set<VectorId> seen;
  // n never passes the live row count, so a huge k cannot wrap it to 0.
  for (std::size_t n = k > live / 4 ? live : 4 * k;;
       n = std::min(n * 2, live)) {
    VDB_RETURN_IF_ERROR(fetch(n, &raw));
    out->clear();
    seen.clear();
    for (const auto& nb : raw) {
      if (out->size() >= k) break;
      auto it = entity_of_vector_.find(nb.id);
      VectorId id = it != entity_of_vector_.end() ? it->second : nb.id;
      if (seen.insert(id).second) out->push_back({id, nb.dist});
    }
    // Fewer than n rows back: the fetch is exhausted, like the post-filter
    // refill's.
    if (out->size() >= k || n >= live || raw.size() < n) return Status::Ok();
  }
}

Status Collection::Knn(VectorView query, std::size_t k,
                       std::vector<Neighbor>* out, SearchStats* stats,
                       const SearchParams* params) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  if (query.size() != opts_.dim) {
    return Status::InvalidArgument("query dim mismatch");
  }
  SearchParams p = params != nullptr ? *params : SearchParams{};
  const HybridExecutor executor(View());
  return FetchEntities(
      k,
      [&](std::size_t n, std::vector<Neighbor>* rows) {
        p.k = n;
        return executor.Search(query.data(), p, rows, stats);
      },
      out);
}

Status Collection::RangeSearch(VectorView query, float radius,
                               std::vector<Neighbor>* out,
                               SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  // Exact by construction: scan every row (range semantics demand
  // completeness; index-accelerated range search is available directly on
  // FlatIndex / graph indexes for approximate variants).
  VDB_RETURN_IF_ERROR(ForEachLiveRow(
      View(),
      [&](VectorId id, const float* vec) {
        float dist = scorer_.Distance(query.data(), vec);
        if (stats != nullptr) ++stats->distance_comps;
        if (dist <= radius) {
          auto it = entity_of_vector_.find(id);
          out->push_back(
              {it != entity_of_vector_.end() ? it->second : id, dist});
        }
      },
      stats));
  std::sort(out->begin(), out->end());
  if (entity_vectors_.empty()) return Status::Ok();
  // An entity keeps its best member's hit; its other members' hits need
  // not sit next to it in distance order.
  std::unordered_set<VectorId> seen;
  std::size_t kept = 0;
  for (const Neighbor& nb : *out) {
    if (seen.insert(nb.id).second) (*out)[kept++] = nb;
  }
  out->resize(kept);
  return Status::Ok();
}

Result<CkSearchResult> Collection::CkSearch(VectorView query, double c,
                                            std::size_t k,
                                            SearchStats* stats) const {
  if (c < 1.0) return Status::InvalidArgument("c must be >= 1");
  // Exact k-th distance (the verification oracle). Rows are fetched as
  // Knn fetches them, so members of multi-vector entities collapse into
  // k entities.
  std::vector<Neighbor> truth;
  VDB_RETURN_IF_ERROR(FetchEntities(
      k,
      [&](std::size_t n, std::vector<Neighbor>* rows) {
        TopK exact(n);
        VDB_RETURN_IF_ERROR(ForEachLiveRow(
            View(),
            [&](VectorId id, const float* vec) {
              exact.Push(id, scorer_.Distance(query.data(), vec));
            },
            stats));
        *rows = exact.Take();
        return Status::Ok();
      },
      &truth));
  if (truth.empty()) return Status::FailedPrecondition("collection is empty");
  double exact_kth = truth.back().dist;

  CkSearchResult result;
  const HybridExecutor executor(View());
  SearchParams p;
  for (int ef = 32; ef <= 4096; ef *= 4) {
    p.ef = ef;
    VDB_RETURN_IF_ERROR(FetchEntities(
        k,
        [&](std::size_t n, std::vector<Neighbor>* rows) {
          p.k = n;
          return executor.Search(query.data(), p, rows, stats);
        },
        &result.neighbors));
    double worst = result.neighbors.empty()
                       ? std::numeric_limits<double>::infinity()
                       : result.neighbors.back().dist;
    result.achieved_ratio =
        exact_kth > 0.0 ? worst / exact_kth : (worst > 0.0 ? c + 1.0 : 1.0);
    result.satisfied = result.neighbors.size() >= truth.size() &&
                       result.achieved_ratio <= c + 1e-9;
    if (result.satisfied) break;
  }
  return result;
}

Status Collection::Hybrid(VectorView query, const Predicate& pred,
                          std::size_t k, std::vector<Neighbor>* out,
                          ExecStats* stats, const HybridPlan* forced_plan,
                          const SearchParams* params) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  SearchParams p = params != nullptr ? *params : SearchParams{};
  p.k = k;

  HybridPlan plan;
  if (forced_plan != nullptr) {
    plan = *forced_plan;
  } else if (optimizer_ != nullptr) {
    TraceScope plan_span(p.trace, "plan");
    VDB_ASSIGN_OR_RETURN(
        plan, optimizer_->Choose(pred, View(), p,
                                 stats != nullptr ? &stats->est_selectivity
                                                  : nullptr));
    plan_span.Note("chosen", plan.ToString());
  } else {
    plan = opts_.predefined_plan;
    if (segments_.empty()) plan.kind = PlanKind::kBruteForceHybrid;
  }
  if (stats != nullptr) stats->plan = plan;
  HybridExecutor executor(View());
  return executor.Execute(plan, pred, query.data(), p, out, stats);
}

Result<HybridPlan> Collection::ExplainHybrid(const Predicate& pred,
                                             const SearchParams* params) const {
  SearchParams p = params != nullptr ? *params : SearchParams{};
  if (optimizer_ == nullptr) return opts_.predefined_plan;
  return optimizer_->Choose(pred, View(), p);
}

Status Collection::BatchKnn(const FloatMatrix& queries, std::size_t k,
                            std::vector<std::vector<Neighbor>>* out,
                            SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  SearchParams p;
  p.k = k;
  // Fast paths need one segment whose index covers every live row.
  if (Clean() && segments_.size() == 1 && entity_vectors_.empty()) {
    const VectorIndex* index = segments_.front().index.get();
    if (auto* ivf = dynamic_cast<const IvfFlatIndex*>(index)) {
      return ivf->BatchSearch(queries, p, out, stats);
    }
    if (auto* hnsw = dynamic_cast<const HnswIndex*>(index)) {
      return SharedEntryBatch(*hnsw, queries, p, out, stats);
    }
  }
  out->resize(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    VDB_RETURN_IF_ERROR(Knn(queries.row_view(q), k, &(*out)[q], stats));
  }
  return Status::Ok();
}

Status Collection::MultiVectorKnn(const FloatMatrix& query_vectors,
                                  const Aggregator& agg, std::size_t k,
                                  std::vector<Neighbor>* out,
                                  SearchStats* stats) const {
  if (entity_vectors_.empty()) {
    return Status::FailedPrecondition("no multi-vector entities");
  }
  if (query_vectors.cols() != opts_.dim) {
    return Status::InvalidArgument("query dim mismatch");
  }
  // Candidate generation through the merged search path, then exact
  // aggregate re-scoring (see exec/multivector.h for the semantics).
  std::unordered_set<VectorId> candidates;
  SearchParams p;
  p.k = std::max<std::size_t>(k * 4, 8);
  HybridExecutor executor(View());
  for (std::size_t qv = 0; qv < query_vectors.rows(); ++qv) {
    std::vector<Neighbor> hits;
    VDB_RETURN_IF_ERROR(
        executor.Search(query_vectors.row(qv), p, &hits, stats));
    for (const auto& h : hits) {
      auto it = entity_of_vector_.find(h.id);
      if (it != entity_of_vector_.end()) candidates.insert(it->second);
    }
  }
  // Exact aggregate re-scoring over the candidates' member rows: the
  // sealed ones are read first, one batched read per segment, so a paged
  // segment reads each page at most once.
  std::vector<VectorId> members;
  for (VectorId entity : candidates) {
    const auto& vids = entity_vectors_.at(entity);
    members.insert(members.end(), vids.begin(), vids.end());
  }
  VectorStore sealed(opts_.dim);
  for (const Segment& seg : segments_) {
    Status put = Status::Ok();
    VDB_RETURN_IF_ERROR(seg.index->ReadRows(
        members,
        [&](VectorId id, const float* vec) {
          if (put.ok()) put = sealed.Put(id, vec);
        },
        stats));
    VDB_RETURN_IF_ERROR(put);
  }
  TopK top(k);
  std::vector<float> per_query;
  for (VectorId entity : candidates) {
    per_query.assign(query_vectors.rows(), std::numeric_limits<float>::max());
    for (VectorId vid : entity_vectors_.at(entity)) {
      const float* vec = growing_.Get(vid);
      if (vec == nullptr) vec = sealed.Get(vid);
      if (vec == nullptr) continue;  // a deleted member
      for (std::size_t qv = 0; qv < query_vectors.rows(); ++qv) {
        float d = scorer_.Distance(query_vectors.row(qv), vec);
        if (stats != nullptr) ++stats->distance_comps;
        per_query[qv] = std::min(per_query[qv], d);
      }
    }
    top.Push(entity, agg.Combine(per_query));
  }
  *out = top.Take();
  return Status::Ok();
}

std::size_t Collection::Size() const {
  return LiveRows(View()) - [this] {
    std::size_t members = 0;
    for (const auto& [entity, vids] : entity_vectors_) members += vids.size();
    return members;
  }() + entity_vectors_.size();
}

std::size_t Collection::MemoryBytes() const {
  std::size_t bytes = growing_.MemoryBytes();
  for (const Segment& seg : segments_) bytes += seg.index->MemoryBytes();
  return bytes;
}

}  // namespace vdb
