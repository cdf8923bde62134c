// Durability tour: the storage-manager lifecycle of a production VDBMS —
// WAL-backed writes, crash recovery by replay, checkpoints that carry the
// sealed segments and their indexes, index persistence, and out-of-place
// (flush-policy) updates — composed end to end.
//
//   ./build/examples/durability_tour

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/failpoint.h"
#include "core/synthetic.h"
#include "db/collection.h"
#include "index/hnsw.h"

#include "example_util.h"

int main() {
  using namespace vdb;
  std::string dir = "/tmp/vdb_durability_" + std::to_string(::getpid());
  std::string wal = dir + ".wal";
  std::string snapshot = dir + ".snap";
  std::string index_file = dir + ".hnsw";

  CollectionOptions options;
  options.dim = 16;
  options.attributes = {{"shard_hint", AttrType::kInt64}};
  options.index_factory = [] {
    HnswOptions hnsw;
    hnsw.m = 8;
    return std::make_unique<HnswIndex>(hnsw);
  };
  options.wal_path = wal;

  FloatMatrix data = GaussianClusters({5000, 16, 5, 16, 0.15f});

  // --- Session 1: write with WAL, checkpoint mid-way, then "crash". ----
  {
    auto session = Collection::Open(options);
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return 1;
    }
    auto& c = **session;
    for (std::size_t i = 0; i < 3000; ++i) {
      OrDie(c.Insert(i, data.row_view(i),
                     {{"shard_hint", std::int64_t(i % 4)}}));
    }
    OrDie(c.BuildIndex());
    OrDie(c.Checkpoint(snapshot));
    std::printf("session 1: 3000 rows inserted and indexed, checkpoint "
                "written (rows + HNSW graph)\n");
    // This loop is the fault-injection target (arm wal.append.fail via
    // VDB_FAILPOINTS and session 2 restores exactly that many fewer
    // rows), so injected failures are tolerated, not fatal.
    std::size_t dropped = 0;
    for (std::size_t i = 3000; i < 5000; ++i) {
      if (!c.Insert(i, data.row_view(i), {{"shard_hint", std::int64_t(i % 4)}})
               .ok()) {
        ++dropped;
      }
    }
    if (dropped > 0) {
      std::printf("session 1: %zu inserts failed (injected faults)\n",
                  dropped);
    }
    OrDie(c.Delete(17));
    std::printf("session 1: 2000 more rows + 1 delete land in the WAL only; "
                "process exits without any shutdown step (simulated crash)\n");
  }

  // --- Session 2: recover from checkpoint + WAL tail. ------------------
  {
    std::size_t rebuilt = 0;
    auto recovered = Collection::Restore(options, snapshot, &rebuilt);
    if (!recovered.ok()) {
      std::fprintf(stderr, "restore: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    auto& c = **recovered;
    std::printf("\nsession 2: restored %zu rows (checkpoint + WAL replay)\n",
                c.Size());
    std::printf("session 2: the index came back with the checkpoint: %zu "
                "segment, %zu rows rebuilt, %zu rows unindexed\n",
                c.SegmentCount(), rebuilt, c.UnindexedRows());
    std::vector<Neighbor> out;
    OrDie(c.Knn(data.row_view(4321), 1, &out));
    std::printf("session 2: WAL-only row 4321 found -> id=%llu\n",
                (unsigned long long)out[0].id);
    OrDie(c.Knn(data.row_view(17), 1, &out));
    std::printf("session 2: deleted row 17 stays deleted -> nearest is "
                "id=%llu\n",
                (unsigned long long)out[0].id);
  }

  // --- Index persistence: build once, reload instantly. ----------------
  {
    HnswIndex index;
    OrDie(index.Build(data, {}));
    OrDie(index.Save(index_file));
    auto loaded = HnswIndex::Load(index_file);
    std::printf("\nindex persistence: saved + reloaded HNSW, %zu vectors, "
                "status=%s\n",
                loaded.ok() ? (*loaded)->Size() : 0,
                loaded.status().ToString().c_str());
  }

  // --- Fault injection: arm a failpoint, watch the error surface. -------
  // Every durability claim above is testable because the fault sites are
  // compiled in. `ScopedFailpoint` arms a named site for one scope; the
  // same sites are armable from the environment, e.g.
  //   VDB_FAILPOINTS="wal.sync.fail=always" ./build/examples/durability_tour
  {
    CollectionOptions faulty = options;
    faulty.wal_path = dir + ".faulty.wal";
    auto c = Collection::Open(faulty);
    ScopedFailpoint torn("wal.append.short_write", FailpointSpec{.times = 1});
    Status s = (*c)->Insert(9001, data.row_view(0));
    std::printf("\nfault injection: insert under wal.append.short_write -> "
                "%s\n", s.ToString().c_str());
    s = (*c)->Insert(9002, data.row_view(1));
    std::printf("fault injection: failpoint exhausted (times:1), next "
                "insert -> %s\n", s.ToString().c_str());
  }

  // --- Flush policy: writes never block on index rebuilds. -------------
  {
    CollectionOptions lsm = options;
    lsm.wal_path.clear();
    lsm.lsm_memtable_limit = 512;
    auto c = Collection::Create(lsm);
    for (std::size_t i = 0; i < 5000; ++i) {
      OrDie((*c)->Insert(i, data.row_view(i)));
    }
    std::vector<Neighbor> out;
    OrDie((*c)->Knn(data.row_view(4999), 1, &out));
    std::printf("\nflush policy: 5000 streamed inserts (%zu sealed "
                "segments, %zu growing rows), last row immediately "
                "searchable -> id=%llu\n",
                (*c)->SegmentCount(), (*c)->UnindexedRows(),
                (unsigned long long)out[0].id);
    // A checkpoint is the segment list: every segment comes back as it was.
    OrDie((*c)->Checkpoint(snapshot));
    std::size_t rebuilt = 0;
    auto restored = Collection::Restore(lsm, snapshot, &rebuilt);
    OrDie(restored.status());
    std::printf("flush policy: restored %zu segments and %zu growing rows, "
                "%zu rows rebuilt\n",
                (*restored)->SegmentCount(), (*restored)->UnindexedRows(),
                rebuilt);
  }
  return 0;
}
