#include "db/distributed.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/failpoint.h"
#include "core/sync.h"
#include "core/kmeans.h"
#include "core/telemetry.h"
#include "core/topk.h"
#include "exec/trace.h"

namespace vdb {

namespace {

/// Shared scatter state. Heap-allocated and reference-counted because a
/// worker abandoned at the deadline keeps writing into its own slot after
/// Knn has returned; the context (query copy included) must outlive it.
struct GatherContext {
  std::vector<float> query;
  std::size_t k = 0;
  SearchParams params;
  bool has_params = false;

  struct Slot {
    std::vector<Neighbor> part;
    SearchStats stats;
    Status status;
    std::uint64_t retries = 0;
    std::atomic<bool> done{false};
  };
  std::vector<Slot> slots;  ///< sized once at creation; never reallocated

  Mutex mu;
  CondVar cv;
  std::size_t completed VDB_GUARDED_BY(mu) = 0;
};

}  // namespace

Result<std::unique_ptr<ShardedCollection>> ShardedCollection::Create(
    ShardedOptions opts) {
  if (opts.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (opts.replicas == 0) {
    return Status::InvalidArgument("replicas must be >= 1 (the primary)");
  }
  if (!opts.collection.wal_path.empty()) {
    return Status::InvalidArgument("per-shard WAL paths are not supported");
  }
  auto sharded =
      std::unique_ptr<ShardedCollection>(new ShardedCollection(std::move(opts)));
  sharded->shards_.resize(sharded->opts_.num_shards);
  for (auto& shard : sharded->shards_) {
    VDB_ASSIGN_OR_RETURN(shard.primary,
                         Collection::Create(sharded->opts_.collection));
    for (std::size_t r = 1; r < sharded->opts_.replicas; ++r) {
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<Collection> replica,
                           Collection::Create(sharded->opts_.collection));
      shard.replicas.push_back(std::move(replica));
    }
  }
  return sharded;
}

Status ShardedCollection::TrainRouter(const FloatMatrix& sample) {
  if (opts_.policy != ShardingPolicy::kIndexGuided) {
    return Status::FailedPrecondition("router only used under kIndexGuided");
  }
  KMeansOptions km;
  km.k = shards_.size();
  km.seed = opts_.seed;
  VDB_ASSIGN_OR_RETURN(KMeansResult result, KMeans(sample, km));
  router_centroids_ = std::move(result.centroids);
  return Status::Ok();
}

std::size_t ShardedCollection::RouteVector(const float* vec,
                                           VectorId id) const {
  if (opts_.policy == ShardingPolicy::kHash || router_centroids_.empty()) {
    return static_cast<std::size_t>(id * 2654435761ull % shards_.size());
  }
  return NearestCentroid(router_centroids_, vec) % shards_.size();
}

std::vector<std::size_t> ShardedCollection::RouteQuery(
    const float* query, std::size_t shards_to_probe) const {
  std::vector<std::size_t> targets;
  if (opts_.policy == ShardingPolicy::kIndexGuided &&
      !router_centroids_.empty() && shards_to_probe > 0 &&
      shards_to_probe < shards_.size()) {
    auto order = NearestCentroids(router_centroids_, query, shards_to_probe);
    for (std::uint32_t s : order) targets.push_back(s % shards_.size());
    return targets;
  }
  targets.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) targets[s] = s;
  return targets;
}

Status ShardedCollection::Insert(VectorId id, VectorView vec,
                                 const std::vector<AttrBinding>& attrs) {
  if (opts_.policy == ShardingPolicy::kIndexGuided &&
      router_centroids_.empty()) {
    return Status::FailedPrecondition("TrainRouter before inserting");
  }
  Shard& shard = shards_[RouteVector(vec.data(), id)];
  VDB_RETURN_IF_ERROR(shard.primary->Insert(id, vec, attrs));
  if (!shard.replicas.empty()) {
    shard.pending.push_back(
        {true, id, {vec.begin(), vec.end()}, attrs});
  }
  return Status::Ok();
}

Status ShardedCollection::Delete(VectorId id) {
  // Without a global id->shard map, try each shard (deletes are rare in
  // the modeled workloads; a directory is an easy extension).
  for (auto& shard : shards_) {
    Status status = shard.primary->Delete(id);
    if (status.ok()) {
      if (!shard.replicas.empty()) {
        shard.pending.push_back({false, id, {}, {}});
      }
      return Status::Ok();
    }
    if (status.code() != StatusCode::kNotFound) return status;
  }
  return Status::NotFound("id not present in any shard");
}

Status ShardedCollection::BuildIndexes() {
  for (auto& shard : shards_) {
    VDB_RETURN_IF_ERROR(shard.primary->BuildIndex());
    for (auto& replica : shard.replicas) {
      if (replica->Size() > 0) VDB_RETURN_IF_ERROR(replica->BuildIndex());
    }
  }
  return Status::Ok();
}

void ShardedCollection::RecordProbeOutcome(std::size_t s, bool failed) const {
  if (opts_.breaker_threshold == 0) return;
  const Shard& shard = shards_[s];
  if (!failed) {
    shard.consecutive_failures.store(0, std::memory_order_relaxed);
    return;
  }
  std::uint32_t consec =
      shard.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (consec >= opts_.breaker_threshold) {
    shard.cooldown_remaining.store(opts_.breaker_cooldown_probes,
                                   std::memory_order_relaxed);
    shard.consecutive_failures.store(0, std::memory_order_relaxed);
    static Counter& trips =
        Registry::Global().GetCounter("vdb_shard_breaker_trips_total");
    trips.Inc();
  }
}

std::uint32_t ShardedCollection::BreakerCooldownRemaining(
    std::size_t s) const {
  return shards_[s].cooldown_remaining.load(std::memory_order_relaxed);
}

void ShardedCollection::ResetBreaker(std::size_t s) {
  shards_[s].cooldown_remaining.store(0, std::memory_order_relaxed);
  shards_[s].consecutive_failures.store(0, std::memory_order_relaxed);
}

ShardedCollection::~ShardedCollection() {
  MutexLock lock(stragglers_mu_);
  for (auto& t : stragglers_) {
    if (t.joinable()) t.join();
  }
}

Status ShardedCollection::Knn(VectorView query, std::size_t k,
                              std::vector<Neighbor>* out, SearchStats* stats,
                              bool parallel, bool read_replicas,
                              std::size_t shards_to_probe,
                              const SearchParams* params) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  auto targets = RouteQuery(query.data(), shards_to_probe);
  const std::size_t n = targets.size();

  // A QueryTrace is single-threaded: record one scatter_gather span on
  // the calling thread and strip the trace from worker-visible params.
  QueryTrace* trace = params != nullptr ? params->trace : nullptr;
  TraceScope gather_span(trace, "scatter_gather");
  gather_span.Note("shards", std::to_string(n));

  auto ctx = std::make_shared<GatherContext>();
  ctx->query.assign(query.begin(), query.end());
  ctx->k = k;
  if (params != nullptr) {
    ctx->params = *params;
    ctx->params.trace = nullptr;
    ctx->has_params = true;
  }
  ctx->slots = std::vector<GatherContext::Slot>(n);

  // One shard probe: replica read (if requested) with fallback to the
  // primary, failpoint fault sites included. Runs on a worker thread in
  // parallel mode, inline otherwise. Touches only ctx and the shard.
  auto probe = [ctx](const Shard* shard, std::size_t t, std::size_t s,
                     const Collection* replica_reader) {
    static Histogram& probe_latency =
        Registry::Global().GetHistogram("vdb_shard_probe_seconds");
    ScopedLatencyTimer probe_timer(probe_latency);
    GatherContext::Slot& slot = ctx->slots[t];
    if (std::uint32_t ms = FailpointDelayMs("shard.knn.delay", s)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    const SearchParams* p = ctx->has_params ? &ctx->params : nullptr;
    VectorView q{ctx->query.data(), ctx->query.size()};
    auto attempt = [&](const Collection* reader, bool is_replica) -> Status {
      if (is_replica && FailpointFires("shard.replica.fail", s)) {
        return Status::IoError("injected failure: shard.replica.fail");
      }
      if (FailpointFires("shard.knn.fail", s)) {
        return Status::IoError("injected failure: shard.knn.fail");
      }
      slot.part.clear();
      slot.stats = SearchStats{};
      if (reader->Size() == 0) return Status::Ok();  // contributes nothing
      return reader->Knn(q, ctx->k, &slot.part, &slot.stats, p);
    };
    const Collection* reader =
        replica_reader != nullptr ? replica_reader : shard->primary.get();
    Status status = attempt(reader, replica_reader != nullptr);
    if (!status.ok() && replica_reader != nullptr) {
      ++slot.retries;  // replica read failed: retry against the primary
      status = attempt(shard->primary.get(), /*is_replica=*/false);
    }
    slot.status = status;
    slot.done.store(true, std::memory_order_release);
    {
      MutexLock lock(ctx->mu);
      ++ctx->completed;
    }
    ctx->cv.NotifyOne();
  };

  // Dispatch: skip breaker-tripped shards, pick the replica up front (the
  // round-robin cursor is shared state the worker must not touch).
  std::vector<bool> skipped(n, false);
  std::vector<std::pair<std::thread, std::size_t>> workers;
  std::size_t dispatched = 0;
  const bool threaded = parallel && n > 1;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t s = targets[t];
    const Shard& shard = shards_[s];
    if (opts_.breaker_threshold > 0) {
      std::uint32_t cd = shard.cooldown_remaining.load(std::memory_order_relaxed);
      bool skip = false;
      while (cd > 0) {
        if (shard.cooldown_remaining.compare_exchange_weak(
                cd, cd - 1, std::memory_order_relaxed)) {
          skip = true;  // tripped open: this probe is the cooldown tick
          break;
        }
      }
      if (skip) {
        skipped[t] = true;
        continue;
      }
    }
    const Collection* replica_reader = nullptr;
    if (read_replicas && !shard.replicas.empty()) {
      replica_reader = shard.replicas[replica_rr_.fetch_add(1) %
                                      shard.replicas.size()]
                           .get();
    }
    ++dispatched;
    if (threaded) {
      workers.emplace_back(std::thread(probe, &shard, t, s, replica_reader),
                           t);
    } else {
      probe(&shard, t, s, replica_reader);
    }
  }

  // Gather with an optional deadline; workers still running at the
  // deadline are abandoned to the straggler list and their shards count
  // as failed.
  if (threaded && dispatched > 0) {
    // Explicit wait loops (not predicate lambdas): TSA analyzes a
    // lambda as a separate function, so the guarded `completed` read
    // must happen in this annotated scope.
    MutexLock lock(ctx->mu);
    if (opts_.shard_deadline_ms > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(opts_.shard_deadline_ms);
      while (ctx->completed != dispatched) {
        if (!ctx->cv.WaitUntil(ctx->mu, deadline)) break;  // timed out
      }
    } else {
      while (ctx->completed != dispatched) ctx->cv.Wait(ctx->mu);
    }
  }
  for (auto& [worker, t] : workers) {
    if (ctx->slots[t].done.load(std::memory_order_acquire)) {
      worker.join();
    } else {
      MutexLock lock(stragglers_mu_);
      stragglers_.push_back(std::move(worker));
    }
  }

  // Merge healthy shards; account for the rest.
  std::vector<std::vector<Neighbor>> parts;
  parts.reserve(n);
  SearchStats agg;
  std::size_t failed = 0;
  Status first_failure = Status::Ok();
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t s = targets[t];
    if (skipped[t]) {
      ++failed;  // tripped breaker: shard sat this query out
      continue;
    }
    GatherContext::Slot& slot = ctx->slots[t];
    if (!slot.done.load(std::memory_order_acquire)) {
      ++failed;  // deadline expired with the shard still searching
      if (first_failure.ok()) {
        first_failure = Status::IoError("shard deadline exceeded");
      }
      RecordProbeOutcome(s, /*failed=*/true);
      continue;
    }
    agg.shard_retries += slot.retries;
    if (!slot.status.ok()) {
      ++failed;
      if (first_failure.ok()) first_failure = slot.status;
      RecordProbeOutcome(s, /*failed=*/true);
      continue;
    }
    RecordProbeOutcome(s, /*failed=*/false);
    agg += slot.stats;
    parts.push_back(std::move(slot.part));
  }

  if (failed > 0) {
    if (failed == n) {
      return first_failure.ok()
                 ? Status::IoError("all shards unavailable (breaker open)")
                 : first_failure;
    }
    if (!opts_.allow_partial) {
      return first_failure.ok()
                 ? Status::IoError("shard unavailable (breaker open)")
                 : first_failure;
    }
  }
  agg.shards_failed = failed;
  agg.partial = failed > 0;
  gather_span.RecordStats(agg);
  if (stats != nullptr) *stats += agg;
  *out = MergeTopK(parts, k);
  return Status::Ok();
}

Status ShardedCollection::SyncReplicas() {
  for (auto& shard : shards_) {
    while (!shard.pending.empty()) {
      const PendingOp& op = shard.pending.front();
      for (auto& replica : shard.replicas) {
        if (op.is_insert) {
          VDB_RETURN_IF_ERROR(replica->Insert(
              op.id, {op.vec.data(), op.vec.size()}, op.attrs));
        } else {
          VDB_RETURN_IF_ERROR(replica->Delete(op.id));
        }
      }
      shard.pending.pop_front();
    }
  }
  return Status::Ok();
}

std::size_t ShardedCollection::PendingReplicaOps() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.pending.size();
  return total;
}

std::size_t ShardedCollection::Size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.primary->Size();
  return total;
}

}  // namespace vdb
