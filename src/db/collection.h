#ifndef VDB_DB_COLLECTION_H_
#define VDB_DB_COLLECTION_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aggregate.h"
#include "db/embedder.h"
#include "exec/executor.h"
#include "exec/multivector.h"
#include "exec/optimizer.h"
#include "exec/predicate.h"
#include "storage/attribute_store.h"
#include "storage/vector_store.h"
#include "storage/wal.h"

namespace vdb {

class BinaryReader;  // storage/serializer.h

/// Plan-selection policy of a collection (the system archetypes of §2.4:
/// mostly-vector systems predefine a plan; mostly-mixed systems optimize).
enum class PlanMode {
  kCostBased,    ///< AnalyticDB-V / Milvus style linear cost model
  kRuleBased,    ///< Qdrant / Vespa selectivity thresholds
  kPredefined,   ///< Vearch / Weaviate style fixed plan
};

struct CollectionOptions {
  std::size_t dim = 0;
  MetricSpec metric = MetricSpec::L2();
  /// Attribute schema: name -> type.
  std::vector<std::pair<std::string, AttrType>> attributes;

  /// Builds the index of each sealed segment. Unset: every query
  /// brute-forces (the SingleStore §2.4(2) baseline).
  IndexFactory index_factory;

  /// Optional int64 column for offline attribute partitioning (§2.3(1)):
  /// each sealed segment then holds the rows of one of its values.
  std::string partition_column;

  PlanMode plan_mode = PlanMode::kCostBased;
  HybridPlan predefined_plan{PlanKind::kPostFilterIndexScan, 3.0f};

  /// Update policy (§2.3(3)). 0: in place — an insert joins the single
  /// sealed segment of its partition key when that segment's index can
  /// `Add` it. N > 0: out of place — the growing segment is sealed into new
  /// indexed segments (`Flush`) once it holds N rows; requires
  /// `index_factory`.
  std::size_t lsm_memtable_limit = 0;
  /// Sealed segments of one partition key at which a flush triggers
  /// `Compact`.
  std::size_t lsm_compact_at_segments = 6;

  /// Durability: append inserts/deletes to this WAL; Open() replays it.
  std::string wal_path;

  /// In-database embedding model enabling `InsertText` (indirect
  /// manipulation, §2.1); its dim must equal `dim`.
  std::shared_ptr<const Embedder> embedder;
};

/// Verdict of a (c,k)-search: results plus the achieved approximation
/// ratio (worst returned distance / exact k-th distance).
struct CkSearchResult {
  std::vector<Neighbor> neighbors;
  double achieved_ratio = 1.0;
  bool satisfied = true;
};

/// A named vector collection — the full VDBMS data plane of Figure 1:
/// vector + attribute storage, a configurable search index, the hybrid
/// query optimizer/executor, and every query type of §2.1 (k-NN, range,
/// (c,k)-search, hybrid, batched, multi-vector), with optional WAL
/// durability.
///
/// Storage is the Milvus/Manu segment layout (§2.3(3)): every row lives
/// once, either in a sealed segment, whose index owns it (resident or in
/// its pages), or in the growing segment, a VectorStore that every read
/// brute-forces. A delete tombstones the row where it lives. Each sealed
/// segment holds the rows of one partition key; a partition is the group
/// of segments of one key. The in-place index is the case of one sealed
/// segment per key.
///
/// Not thread-safe for writers; external synchronization required for
/// concurrent use (ShardedCollection provides the parallel read path).
/// `const` queries may share one collection, as server workers do: the
/// attribute statistics cache they fill guards itself.
class Collection {
 public:
  static Result<std::unique_ptr<Collection>> Create(CollectionOptions opts);
  /// Create + replay the WAL at `opts.wal_path` (if any).
  static Result<std::unique_ptr<Collection>> Open(CollectionOptions opts);

  // ----------------------------------------------------------- mutation
  Status Insert(VectorId id, VectorView vec,
                const std::vector<AttrBinding>& attrs = {});
  /// Indirect manipulation: embeds `text` with the configured embedder.
  Status InsertText(VectorId id, const std::string& text,
                    const std::vector<AttrBinding>& attrs = {});
  /// Registers a multi-vector entity (§2.1): all rows of `vecs` belong to
  /// entity `entity`. Entity ids and vector ids share one namespace; the
  /// individual vectors get fresh internal ids.
  Status InsertEntity(VectorId entity, const FloatMatrix& vecs,
                      const std::vector<AttrBinding>& attrs = {});
  Status Delete(VectorId id);
  Status Upsert(VectorId id, VectorView vec,
                const std::vector<AttrBinding>& attrs = {});

  /// Seals every live row into one new segment per partition key,
  /// replacing all segments, under either policy. No-op on a clean
  /// collection: one segment per key, no growing rows, no removals since
  /// the seal.
  Status BuildIndex();
  /// Seals the growing rows into one new segment per partition key (no-op
  /// when there are none); may trigger `Compact`. All-or-nothing.
  Status Flush();
  /// Merges the sealed segments into one segment per partition key over
  /// their live rows, dropping removed rows. The growing rows stay growing
  /// (BuildIndex seals those too). All-or-nothing.
  Status Compact();

  /// Serializes the data plane to one CRC-guarded snapshot file,
  /// installed atomically (temp file + rename + parent-dir fsync): the
  /// growing rows, the attributes, the multi-vector entity maps, then each
  /// sealed segment — its key, its rows once, and the structure of a
  /// family with a codec (VectorIndex::SaveStructure). Pair with WAL
  /// rotation for bounded-recovery checkpointing (RecoveryManager
  /// orchestrates this).
  Status Checkpoint(const std::string& path) const;
  /// Rebuilds a collection from a `Checkpoint` file, then replays
  /// `opts.wal_path` (if set) on top — checkpoint + WAL = full recovery.
  /// A torn WAL tail is truncated before the log reopens for append. Each
  /// sealed segment comes back: its structure loads when the family
  /// `opts.index_factory` makes can read it; otherwise that segment alone
  /// is rebuilt from its live rows, which are counted in `rows_rebuilt`
  /// (may be null). Without a factory its rows become growing rows.
  static Result<std::unique_ptr<Collection>> Restore(
      CollectionOptions opts, const std::string& path,
      std::size_t* rows_rebuilt = nullptr);

  // ----------------------------------------------------- recovery plumbing
  /// Replays a WAL on top of the current state, tolerating records whose
  /// effects a checkpoint already absorbed (duplicate inserts, deletes of
  /// absent ids). Reports applied records and the valid byte prefix so the
  /// caller can truncate a torn tail (both out-params may be null).
  Status ReplayWalFile(const std::string& path, std::size_t* applied = nullptr,
                       std::size_t* valid_bytes = nullptr);
  /// Opens `path` for appending and routes future mutations to it (the
  /// WAL-rotation half of a checkpoint).
  Status AttachWal(const std::string& path);
  /// fsyncs the attached WAL; acknowledged writes survive any crash after
  /// this returns. No-op without a WAL.
  Status SyncWal();

  // ------------------------------------------------------------ queries
  Status Knn(VectorView query, std::size_t k, std::vector<Neighbor>* out,
             SearchStats* stats = nullptr,
             const SearchParams* params = nullptr) const;

  Status RangeSearch(VectorView query, float radius,
                     std::vector<Neighbor>* out,
                     SearchStats* stats = nullptr) const;

  /// (c,k)-search (§2.1(2)): ANN with verified approximation factor.
  /// Escalates search effort until the worst returned distance is within
  /// factor c of the exact k-th distance (verified by brute force — a
  /// diagnostic-strength guarantee suited to laptop-scale collections).
  Result<CkSearchResult> CkSearch(VectorView query, double c, std::size_t k,
                                  SearchStats* stats = nullptr) const;

  /// Hybrid (predicated) search; the plan comes from the configured
  /// PlanMode unless `forced_plan` is given.
  Status Hybrid(VectorView query, const Predicate& pred, std::size_t k,
                std::vector<Neighbor>* out, ExecStats* stats = nullptr,
                const HybridPlan* forced_plan = nullptr,
                const SearchParams* params = nullptr) const;

  /// The plan the optimizer would choose for `pred` (for inspection).
  Result<HybridPlan> ExplainHybrid(const Predicate& pred,
                                   const SearchParams* params = nullptr) const;

  Status BatchKnn(const FloatMatrix& queries, std::size_t k,
                  std::vector<std::vector<Neighbor>>* out,
                  SearchStats* stats = nullptr) const;

  /// Multi-vector query (§2.1): aggregate score of each entity's vectors.
  Status MultiVectorKnn(const FloatMatrix& query_vectors,
                        const Aggregator& agg, std::size_t k,
                        std::vector<Neighbor>* out,
                        SearchStats* stats = nullptr) const;

  // --------------------------------------------------------------- info
  std::size_t Size() const;
  std::size_t dim() const { return opts_.dim; }
  const Scorer& scorer() const { return scorer_; }
  const AttributeStore& attributes() const { return attrs_; }
  bool HasIndex() const { return !segments_.empty(); }
  /// Live rows of the growing segment: no sealed segment holds them, so
  /// every read brute-forces them.
  std::size_t UnindexedRows() const { return growing_.live_count(); }
  std::size_t SegmentCount() const { return segments_.size(); }
  std::size_t MemoryBytes() const;

 private:
  explicit Collection(CollectionOptions opts) : opts_(std::move(opts)) {}

  Status InsertInternal(VectorId id, const float* vec,
                        const std::vector<AttrBinding>& attrs, bool log);
  Status DeleteInternal(VectorId id, bool log);
  CollectionView View() const;
  /// The layout BuildIndex leaves: one segment per partition key, in key
  /// order, no growing rows and no tombstones, so the segments' indexes
  /// cover exactly the live rows.
  bool Clean() const;
  /// The sealed segment holding a live row labelled `id`; null if none.
  const Segment* HolderOf(VectorId id) const;
  bool Contains(VectorId id) const {
    return growing_.Contains(id) || HolderOf(id) != nullptr;
  }
  /// Replays the WAL at `wal_path`, cuts its torn tail, and attaches it.
  Status Reopen(const std::string& wal_path);
  /// Appends the sealed segment of partition key `key` that a checkpoint
  /// holds as `rows` and a structure behind codec `magic` (see Restore);
  /// Corruption when a live row has another key or is already held.
  Status RestoreSegment(std::optional<std::int64_t> key, VectorStore rows,
                        std::uint32_t magic, BinaryReader* structure,
                        std::size_t* rebuilt);
  /// Builds one segment per partition key over the live rows of `rows`,
  /// in key order; none when there are no live rows.
  Result<std::vector<Segment>> BuildSegments(const CollectionView& rows) const;
  /// The row's partition key: its `partition_column` value; 0 without a
  /// partition column, none for a row without attributes.
  std::optional<std::int64_t> PartitionKey(VectorId id) const;
  /// Sealed segments of partition key `key`.
  std::size_t SegmentsWithKey(std::optional<std::int64_t> key) const;
  /// The best `k` ids of what `fetch(n, &rows)` returns, each multi-vector
  /// member mapped to its entity (an id keeps its first, best, hit).
  /// Without entities that is one fetch of k rows. With them n starts at
  /// 4k and doubles until k entities come back or n covers every live row,
  /// the rule of the post-filter refill.
  template <typename Fetch>
  Status FetchEntities(std::size_t k, Fetch&& fetch,
                       std::vector<Neighbor>* out) const;

  CollectionOptions opts_;
  Scorer scorer_;
  VectorStore growing_{0};
  AttributeStore attrs_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<PlanOptimizer> optimizer_;

  /// Sealed segments, oldest first; their rows precede the growing rows
  /// in the collection's row order.
  std::vector<Segment> segments_;

  /// Multi-vector bookkeeping: entity -> member vector ids and back.
  std::unordered_map<VectorId, std::vector<VectorId>> entity_vectors_;
  std::unordered_map<VectorId, VectorId> entity_of_vector_;
  VectorId next_internal_id_ = (VectorId{1} << 62);  ///< multi-vector rows
};

}  // namespace vdb

#endif  // VDB_DB_COLLECTION_H_
