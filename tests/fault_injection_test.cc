// Fault-injection and crash-recovery tests: the failpoint registry
// itself, WAL torn-tail/bit-flip recovery at every byte offset, storage
// failpoints (paged file, LSM, attribute store), and scatter-gather
// degradation (replica fallback, deadlines, circuit breaker). Turns the
// paper's "crash-consistent tail" and distributed-robustness claims into
// tested invariants.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/failpoint.h"
#include "core/synthetic.h"
#include "db/collection.h"
#include "db/distributed.h"
#include "index/flat.h"
#include "storage/attribute_store.h"
#include "storage/paged_file.h"
#include "storage/serializer.h"
#include "storage/wal.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_fi_" + tag + "_" +
         std::to_string(::getpid());
}

/// Every test leaves the registry clean, however it exits.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().DisarmAll(); }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

// ------------------------------------------------------------ registry

using FailpointTest = FaultTest;

TEST_F(FailpointTest, DisarmedNeverFires) {
  EXPECT_FALSE(FailpointFires("no.such.point"));
  EXPECT_FALSE(Failpoints::AnyArmed());
}

TEST_F(FailpointTest, AlwaysFiresAndCounts) {
  Failpoints::Instance().Arm("fp.always");
  EXPECT_TRUE(Failpoints::AnyArmed());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(FailpointFires("fp.always"));
  EXPECT_GE(Failpoints::Instance().Evaluations("fp.always"), 5u);
  EXPECT_GE(Failpoints::Instance().Triggers("fp.always"), 5u);
  EXPECT_TRUE(Failpoints::Instance().Disarm("fp.always"));
  EXPECT_FALSE(FailpointFires("fp.always"));
}

TEST_F(FailpointTest, TimesLimitsTriggers) {
  ASSERT_TRUE(Failpoints::Instance().Arm("fp.times", "times:2").ok());
  EXPECT_TRUE(FailpointFires("fp.times"));
  EXPECT_TRUE(FailpointFires("fp.times"));
  EXPECT_FALSE(FailpointFires("fp.times"));
  EXPECT_FALSE(FailpointFires("fp.times"));
}

TEST_F(FailpointTest, AfterSkipsThenOneShot) {
  ASSERT_TRUE(Failpoints::Instance().Arm("fp.after", "after:2+times:1").ok());
  EXPECT_FALSE(FailpointFires("fp.after"));
  EXPECT_FALSE(FailpointFires("fp.after"));
  EXPECT_TRUE(FailpointFires("fp.after"));  // third evaluation
  EXPECT_FALSE(FailpointFires("fp.after"));
}

TEST_F(FailpointTest, EveryNth) {
  ASSERT_TRUE(Failpoints::Instance().Arm("fp.every", "every:3").ok());
  int fired = 0;
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) {
    bool f = FailpointFires("fp.every");
    pattern.push_back(f);
    fired += f;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(pattern[0]);
  EXPECT_TRUE(pattern[3]);
  EXPECT_TRUE(pattern[6]);
}

TEST_F(FailpointTest, ProbabilityEndpoints) {
  ASSERT_TRUE(Failpoints::Instance().Arm("fp.p0", "prob:0").ok());
  ASSERT_TRUE(Failpoints::Instance().Arm("fp.p1", "prob:1").ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(FailpointFires("fp.p0"));
    EXPECT_TRUE(FailpointFires("fp.p1"));
  }
}

TEST_F(FailpointTest, ParseRejectsBadSpecs) {
  EXPECT_FALSE(ParseFailpointSpec("sometimes").ok());
  EXPECT_FALSE(ParseFailpointSpec("prob:2").ok());
  EXPECT_FALSE(ParseFailpointSpec("every:0").ok());
  EXPECT_FALSE(ParseFailpointSpec("times:x").ok());
  EXPECT_TRUE(ParseFailpointSpec("after:1+every:2+times:3+prob:0.5").ok());
}

TEST_F(FailpointTest, ArmFromStringList) {
  ASSERT_TRUE(
      Failpoints::Instance().ArmFromString("fp.a=always;fp.b=times:1").ok());
  EXPECT_TRUE(FailpointFires("fp.a"));
  EXPECT_TRUE(FailpointFires("fp.b"));
  EXPECT_FALSE(FailpointFires("fp.b"));
  EXPECT_FALSE(Failpoints::Instance().ArmFromString("fp.c=bogus").ok());
}

TEST_F(FailpointTest, ScopedDisarmsOnExit) {
  {
    ScopedFailpoint fp("fp.scoped");
    EXPECT_TRUE(FailpointFires("fp.scoped"));
  }
  EXPECT_FALSE(FailpointFires("fp.scoped"));
}

TEST_F(FailpointTest, IndexedNameTargetsOneSite) {
  Failpoints::Instance().Arm("fp.site.2");
  EXPECT_FALSE(FailpointFires("fp.site", 0));
  EXPECT_TRUE(FailpointFires("fp.site", 2));
}

// ----------------------------------------------------- WAL crash harness

struct CollectingVisitor : Wal::Visitor {
  struct Row {
    VectorId id;
    std::vector<float> vec;
    std::vector<AttrBinding> attrs;
  };
  std::vector<Row> inserts;
  std::vector<VectorId> deletes;
  void OnInsert(VectorId id, std::span<const float> vec,
                const std::vector<AttrBinding>& attrs) override {
    inserts.push_back({id, {vec.begin(), vec.end()}, attrs});
  }
  void OnDelete(VectorId id) override { deletes.push_back(id); }
};

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// Writes `n` insert records (id i, vec {i, i+0.5}, one int attr) plus a
/// trailing delete, returning the file size after each record.
std::vector<std::size_t> WriteWal(const std::string& path, int n) {
  auto wal = Wal::Open(path);
  EXPECT_TRUE(wal.ok());
  std::vector<std::size_t> sizes;
  struct stat st;
  for (int i = 0; i < n; ++i) {
    float v[2] = {static_cast<float>(i), static_cast<float>(i) + 0.5f};
    EXPECT_TRUE(
        (*wal)->AppendInsert(i, {v, 2}, {{"tag", std::int64_t{i}}}).ok());
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    sizes.push_back(static_cast<std::size_t>(st.st_size));
  }
  EXPECT_TRUE((*wal)->AppendDelete(999).ok());
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  sizes.push_back(static_cast<std::size_t>(st.st_size));
  EXPECT_TRUE((*wal)->Sync().ok());
  return sizes;
}

using WalFaultTest = FaultTest;

TEST_F(WalFaultTest, TearAtEveryByteOffset) {
  std::string path = TempPath("wal_tear");
  std::vector<std::size_t> sizes = WriteWal(path, 4);  // 4 inserts + 1 delete
  std::vector<std::uint8_t> full = ReadFile(path);
  ASSERT_EQ(full.size(), sizes.back());

  std::string cut_path = TempPath("wal_tear_cut");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    WriteBytes(cut_path, {full.begin(), full.begin() + cut});
    CollectingVisitor visitor;
    std::size_t applied = ~std::size_t{0};
    ASSERT_TRUE(Wal::Replay(cut_path, &visitor, &applied).ok())
        << "cut=" << cut;
    // Exactly the records that fully fit before the cut replay; the torn
    // suffix is discarded cleanly.
    std::size_t expect = 0;
    while (expect < sizes.size() && sizes[expect] <= cut) ++expect;
    ASSERT_EQ(applied, expect) << "cut=" << cut;
    std::size_t expect_inserts = std::min<std::size_t>(expect, 4);
    ASSERT_EQ(visitor.inserts.size(), expect_inserts) << "cut=" << cut;
    ASSERT_EQ(visitor.deletes.size(), expect > 4 ? 1u : 0u) << "cut=" << cut;
    for (std::size_t i = 0; i < expect_inserts; ++i) {
      ASSERT_EQ(visitor.inserts[i].id, i);
      ASSERT_EQ(visitor.inserts[i].vec[0], static_cast<float>(i));
      ASSERT_EQ(visitor.inserts[i].attrs.size(), 1u);
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST_F(WalFaultTest, BitFlipInFinalRecordIsRejected) {
  std::string path = TempPath("wal_flip");
  std::vector<std::size_t> sizes = WriteWal(path, 3);
  std::vector<std::uint8_t> full = ReadFile(path);
  std::size_t last_begin = sizes[sizes.size() - 2];

  std::string flip_path = TempPath("wal_flip_cut");
  for (std::size_t byte = last_begin; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = full;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      WriteBytes(flip_path, mutated);
      CollectingVisitor visitor;
      std::size_t applied = 0;
      ASSERT_TRUE(Wal::Replay(flip_path, &visitor, &applied).ok())
          << "byte=" << byte << " bit=" << bit;
      // CRC (or framing) must reject the record: never corrupt data
      // silently, always the consistent 3-insert prefix.
      ASSERT_EQ(applied, 3u) << "byte=" << byte << " bit=" << bit;
      ASSERT_EQ(visitor.inserts.size(), 3u);
      ASSERT_TRUE(visitor.deletes.empty());
    }
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST_F(WalFaultTest, ShortWriteLeavesReplayablePrefix) {
  std::string path = TempPath("wal_short");
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  float v[2] = {1.0f, 2.0f};
  ASSERT_TRUE((*wal)->AppendInsert(1, {v, 2}, {}).ok());
  ASSERT_TRUE((*wal)->AppendInsert(2, {v, 2}, {}).ok());
  {
    ScopedFailpoint fp("wal.append.short_write", "times:1");
    Status torn = (*wal)->AppendInsert(3, {v, 2}, {});
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
  }
  CollectingVisitor visitor;
  std::size_t applied = 0;
  ASSERT_TRUE(Wal::Replay(path, &visitor, &applied).ok());
  EXPECT_EQ(applied, 2u);  // the torn half-frame is discarded
  // The log remains appendable and consistent after the fault clears.
  ASSERT_TRUE((*wal)->AppendInsert(4, {v, 2}, {}).ok());
  CollectingVisitor after;
  ASSERT_TRUE(Wal::Replay(path, &after, &applied).ok());
  // The torn tail shadows the later append (no record boundary resync by
  // design: a replayer never trusts bytes past the first tear).
  EXPECT_EQ(applied, 2u);
  std::remove(path.c_str());
}

TEST_F(WalFaultTest, AppendAndSyncFailpointsSurfaceIoError) {
  std::string path = TempPath("wal_fp");
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  float v[1] = {1.0f};
  {
    ScopedFailpoint fp("wal.append.fail");
    EXPECT_EQ((*wal)->AppendInsert(1, {v, 1}, {}).code(),
              StatusCode::kIoError);
  }
  {
    ScopedFailpoint fp("wal.sync.fail");
    EXPECT_EQ((*wal)->Sync().code(), StatusCode::kIoError);
  }
  EXPECT_TRUE((*wal)->AppendInsert(1, {v, 1}, {}).ok());
  EXPECT_TRUE((*wal)->Sync().ok());
  std::remove(path.c_str());
}

TEST_F(WalFaultTest, OpenFailpointAndFreshFileDurability) {
  {
    ScopedFailpoint fp("wal.open.fail");
    EXPECT_FALSE(Wal::Open(TempPath("wal_openfp")).ok());
  }
  // Fresh-file creation fsyncs the parent directory (crash-durable name);
  // both absolute and slash-free relative paths must resolve a parent.
  std::string abs = TempPath("wal_fresh");
  EXPECT_TRUE(Wal::Open(abs).ok());
  std::remove(abs.c_str());
  std::string rel = "vdb_fi_wal_rel_" + std::to_string(::getpid());
  EXPECT_TRUE(Wal::Open(rel).ok());
  std::remove(rel.c_str());
}

// -------------------------------------------------- storage failpoints

using StorageFaultTest = FaultTest;

TEST_F(StorageFaultTest, PagedFileReadWriteFaults) {
  std::string path = TempPath("paged");
  auto file = PagedFile::Create(path);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> page((*file)->page_size(), 0xAB);
  ASSERT_TRUE((*file)->WritePage(0, page.data()).ok());
  ASSERT_TRUE((*file)->Sync().ok());

  std::vector<std::uint8_t> buf(page.size());
  {
    ScopedFailpoint fp("paged_file.read.fail", "times:1");
    EXPECT_EQ((*file)->ReadPage(0, buf.data()).code(), StatusCode::kIoError);
  }
  {
    ScopedFailpoint fp("paged_file.read.corrupt", "times:1");
    ASSERT_TRUE((*file)->ReadPage(0, buf.data()).ok());
    EXPECT_NE(buf[0], 0xAB);  // one bit flipped on the wire
  }
  ASSERT_TRUE((*file)->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xAB);  // corruption was not cached
  {
    ScopedFailpoint fp("paged_file.write.fail", "times:1");
    EXPECT_EQ((*file)->WritePage(1, page.data()).code(),
              StatusCode::kIoError);
  }
  {
    ScopedFailpoint fp("paged_file.sync.fail", "times:1");
    EXPECT_EQ((*file)->Sync().code(), StatusCode::kIoError);
  }
  EXPECT_TRUE((*file)->Sync().ok());
  std::remove(path.c_str());
}

// ReadPages routes every coalesced run through the same single physical-
// read path as ReadPage, so the read failpoints fire per pread — once per
// run, not once per requested page.
TEST_F(StorageFaultTest, PagedFileBatchReadFaults) {
  std::string path = TempPath("paged_batch");
  auto file = PagedFile::Create(path);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> page((*file)->page_size(), 0xAB);
  for (std::uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }

  std::vector<std::uint64_t> ids = {0, 1, 3};  // two runs: [0,1] and [3]
  std::vector<std::uint8_t> out(ids.size() * (*file)->page_size());
  {
    ScopedFailpoint fp("paged_file.read.fail", "times:1");
    EXPECT_EQ((*file)->ReadPages(ids, out.data()).code(),
              StatusCode::kIoError);
  }
  {
    // times:1 corrupts the first run's first page only; the rest of the
    // batch (including run two) comes back clean and uncached.
    ScopedFailpoint fp("paged_file.read.corrupt", "times:1");
    ASSERT_TRUE((*file)->ReadPages(ids, out.data()).ok());
    EXPECT_NE(out[0], 0xAB);
    EXPECT_EQ(out[(*file)->page_size()], 0xAB);
    EXPECT_EQ(out[2 * (*file)->page_size()], 0xAB);
  }
  ASSERT_TRUE((*file)->ReadPages(ids, out.data()).ok());
  EXPECT_EQ(out[0], 0xAB);  // corruption was not cached
  std::remove(path.c_str());
}

// With the page cache on, a corrupt block read is neither cached nor
// allowed to evict: the cache holds exactly what it held before.
TEST_F(StorageFaultTest, PagedFileCorruptBlockIsNotCached) {
  std::string path = TempPath("paged_blocks");
  PagedFileOptions opts;
  opts.cache_pages = 2;
  auto file = PagedFile::Create(path, opts);
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 0xAB);
  for (std::uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }
  (*file)->ResetCounters();  // pages 1 and 2 are cached

  std::vector<std::uint64_t> block = {0};
  std::vector<std::uint8_t> out(2 * 16);
  {
    ScopedFailpoint fp("paged_file.read.corrupt", "times:1");
    ASSERT_TRUE((*file)->ReadBlocks(block, 16, out.data()).ok());
    EXPECT_NE(out[0], 0xAB);  // one bit flipped on the wire
  }
  EXPECT_EQ((*file)->reads(), 1u);
  std::vector<std::uint64_t> cached = {ps + 1, 2 * ps + 1};
  ASSERT_TRUE((*file)->ReadBlocks(cached, 16, out.data()).ok());
  EXPECT_EQ((*file)->cache_hits(), 2u);  // nothing was evicted
  ASSERT_TRUE((*file)->ReadBlocks(block, 16, out.data()).ok());
  EXPECT_EQ(out[0], 0xAB);  // corruption was not cached
  EXPECT_EQ((*file)->reads(), 2u);
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, LsmFlushFailureIsAllOrNothing) {
  CollectionOptions opts;
  opts.dim = 2;
  opts.lsm_memtable_limit = 2048;
  opts.index_factory = [] { return std::make_unique<FlatIndex>(); };
  auto store = Collection::Create(opts);
  ASSERT_TRUE(store.ok());
  float v[2] = {1.0f, 2.0f};
  for (VectorId id = 0; id < 8; ++id) {
    v[0] = static_cast<float>(id);
    ASSERT_TRUE((*store)->Insert(id, {v, 2}).ok());
  }
  {
    ScopedFailpoint fp("lsm.flush.fail", "times:1");
    EXPECT_EQ((*store)->Flush().code(), StatusCode::kIoError);
  }
  // Failed flush left the growing rows intact and searchable.
  EXPECT_EQ((*store)->UnindexedRows(), 8u);
  EXPECT_EQ((*store)->SegmentCount(), 0u);
  std::vector<Neighbor> out;
  float q[2] = {5.0f, 2.0f};
  ASSERT_TRUE((*store)->Knn({q, 2}, 1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 5u);
  // And the retry succeeds.
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->SegmentCount(), 1u);
  {
    ScopedFailpoint fp("lsm.compact.fail", "times:1");
    EXPECT_EQ((*store)->Compact().code(), StatusCode::kIoError);
  }
  EXPECT_EQ((*store)->SegmentCount(), 1u);  // the failed compaction kept it
  EXPECT_TRUE((*store)->Compact().ok());
}

TEST_F(StorageFaultTest, AttributeStoreLoadCorruption) {
  std::string path = TempPath("attrs");
  AttributeStore store;
  ASSERT_TRUE(store.AddColumn("x", AttrType::kInt64).ok());
  ASSERT_TRUE(store.PutRow(0, {{"x", std::int64_t{7}}}).ok());
  constexpr std::uint32_t kMagic = 0x46544241;  // "ABTF"
  BinaryWriter writer(kMagic);
  store.Save(&writer);
  ASSERT_TRUE(writer.WriteTo(path).ok());

  auto reader = BinaryReader::Open(path, kMagic);
  ASSERT_TRUE(reader.ok());
  AttributeStore loaded;
  {
    ScopedFailpoint fp("attribute_store.load.corrupt");
    EXPECT_EQ(loaded.Load(&*reader).code(), StatusCode::kCorruption);
  }
  auto reader2 = BinaryReader::Open(path, kMagic);
  ASSERT_TRUE(reader2.ok());
  EXPECT_TRUE(loaded.Load(&*reader2).ok());
  std::remove(path.c_str());
}

// ------------------------------------------- collection crash recovery

TEST_F(WalFaultTest, CollectionSurvivesTornAppendCrash) {
  std::string wal_path = TempPath("coll_crash");
  CollectionOptions opts;
  opts.dim = 4;
  opts.wal_path = wal_path;
  FloatMatrix data = GaussianClusters({64, 4, 2, 7, 0.2f});
  {
    auto coll = Collection::Open(opts);
    ASSERT_TRUE(coll.ok());
    for (VectorId id = 0; id < 32; ++id) {
      ASSERT_TRUE((*coll)->Insert(id, data.row_view(id)).ok());
    }
    ScopedFailpoint fp("wal.append.short_write", "times:1");
    // The torn append reports the I/O error instead of claiming
    // durability; the process "crashes" here.
    EXPECT_EQ((*coll)->Insert(32, data.row_view(32)).code(),
              StatusCode::kIoError);
  }
  auto recovered = Collection::Open(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->Size(), 32u);  // exactly the acknowledged prefix
  std::remove(wal_path.c_str());
}

// -------------------------------------- scatter-gather degradation

struct ShardedFixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;
  std::unique_ptr<ShardedCollection> sharded;

  explicit ShardedFixture(ShardedOptions opts, std::size_t n = 400,
                          std::size_t nq = 20) {
    data = GaussianClusters({n, 8, 4, 11, 0.2f});
    queries = GaussianClusters({nq, 8, 4, 13, 0.2f});
    auto created = ShardedCollection::Create(opts);
    EXPECT_TRUE(created.ok());
    sharded = std::move(*created);
    for (std::size_t i = 0; i < data.rows(); ++i) {
      EXPECT_TRUE(sharded->Insert(i, data.row_view(i)).ok());
    }
    FlatIndex oracle;
    EXPECT_TRUE(oracle.Build(data, {}).ok());
    truth.resize(queries.rows());
    SearchParams params;
    params.k = 10;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      EXPECT_TRUE(oracle.Search(queries.row(q), params, &truth[q]).ok());
    }
  }
};

using ShardFaultTest = FaultTest;

TEST_F(ShardFaultTest, MinorityShardFailureDegradesToPartial) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.collection.dim = 8;
  opts.breaker_threshold = 0;  // isolate degradation from the breaker
  ShardedFixture fx(opts);

  for (std::size_t n_fail = 1; n_fail <= 2; ++n_fail) {
    Failpoints::Instance().DisarmAll();
    for (std::size_t s = 0; s < n_fail; ++s) {
      Failpoints::Instance().Arm("shard.knn.fail." + std::to_string(s));
    }
    double recall_sum = 0.0;
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      std::vector<Neighbor> out;
      SearchStats stats;
      ASSERT_TRUE(
          fx.sharded->Knn(fx.queries.row_view(q), 10, &out, &stats).ok());
      EXPECT_EQ(stats.shards_failed, n_fail);
      EXPECT_TRUE(stats.partial);
      EXPECT_FALSE(out.empty());
      recall_sum += RecallAt(out, fx.truth[q], 10);
    }
    // Hash sharding spreads true neighbors uniformly: healthy shards
    // retain roughly (4 - n_fail)/4 of them.
    double recall = recall_sum / fx.queries.rows();
    double healthy_fraction = (4.0 - n_fail) / 4.0;
    EXPECT_GT(recall, healthy_fraction - 0.25);
    EXPECT_LT(recall, 1.0);  // something really was lost
  }
}

TEST_F(ShardFaultTest, AllShardsFailingIsAnError) {
  ShardedOptions opts;
  opts.num_shards = 3;
  opts.collection.dim = 8;
  opts.breaker_threshold = 0;
  ShardedFixture fx(opts, 120, 2);
  ScopedFailpoint fp("shard.knn.fail");
  std::vector<Neighbor> out;
  EXPECT_EQ(fx.sharded->Knn(fx.queries.row_view(0), 10, &out).code(),
            StatusCode::kIoError);
}

TEST_F(ShardFaultTest, PartialDisallowedFailsClosed) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.collection.dim = 8;
  opts.allow_partial = false;
  opts.breaker_threshold = 0;
  ShardedFixture fx(opts, 120, 2);
  ScopedFailpoint fp("shard.knn.fail.0");
  std::vector<Neighbor> out;
  EXPECT_EQ(fx.sharded->Knn(fx.queries.row_view(0), 10, &out).code(),
            StatusCode::kIoError);
}

TEST_F(ShardFaultTest, ReplicaFailureFallsBackToPrimary) {
  ShardedOptions opts;
  opts.num_shards = 2;
  opts.replicas = 2;
  opts.collection.dim = 8;
  ShardedFixture fx(opts, 200, 4);
  // Replicas were never synced: without fallback a replica read sees an
  // empty collection. With shard.replica.fail armed, every replica read
  // errors and must retry on the (fresh) primary.
  ASSERT_GT(fx.sharded->PendingReplicaOps(), 0u);
  ScopedFailpoint fp("shard.replica.fail");
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    std::vector<Neighbor> out;
    SearchStats stats;
    ASSERT_TRUE(fx.sharded
                    ->Knn(fx.queries.row_view(q), 10, &out, &stats,
                          /*parallel=*/true, /*read_replicas=*/true)
                    .ok());
    EXPECT_EQ(stats.shards_failed, 0u);
    EXPECT_FALSE(stats.partial);
    EXPECT_EQ(stats.shard_retries, 2u);  // both shards fell back
    EXPECT_GE(RecallAt(out, fx.truth[q], 10), 0.99);
  }
}

TEST_F(ShardFaultTest, ReplicaDegradationMatrix) {
  // Kill N of the R=2 replica sets outright (replica AND primary): the
  // query degrades to healthy shards with exact failure accounting.
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.replicas = 2;
  opts.collection.dim = 8;
  opts.breaker_threshold = 0;
  ShardedFixture fx(opts);
  ASSERT_TRUE(fx.sharded->SyncReplicas().ok());
  for (std::size_t n_kill = 0; n_kill <= 2; ++n_kill) {
    Failpoints::Instance().DisarmAll();
    for (std::size_t s = 0; s < n_kill; ++s) {
      Failpoints::Instance().Arm("shard.knn.fail." + std::to_string(s));
    }
    double recall_sum = 0.0;
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      std::vector<Neighbor> out;
      SearchStats stats;
      ASSERT_TRUE(fx.sharded
                      ->Knn(fx.queries.row_view(q), 10, &out, &stats,
                            /*parallel=*/true, /*read_replicas=*/true)
                      .ok());
      EXPECT_EQ(stats.shards_failed, n_kill);
      EXPECT_EQ(stats.partial, n_kill > 0);
      // Each killed shard burned its replica attempt + primary retry.
      EXPECT_EQ(stats.shard_retries, n_kill);
      recall_sum += RecallAt(out, fx.truth[q], 10);
    }
    double recall = recall_sum / fx.queries.rows();
    if (n_kill == 0) {
      EXPECT_GE(recall, 0.99);  // synced replicas are exact
    } else {
      EXPECT_GT(recall, (4.0 - n_kill) / 4.0 - 0.25);
    }
  }
}

TEST_F(ShardFaultTest, DeadlineAbandonsSlowShard) {
  ShardedOptions opts;
  opts.num_shards = 2;
  opts.collection.dim = 8;
  opts.shard_deadline_ms = 50;
  opts.breaker_threshold = 0;
  ShardedFixture fx(opts, 120, 2);
  ScopedFailpoint fp("shard.knn.delay.0", "delay:1500");
  std::vector<Neighbor> out;
  SearchStats stats;
  ASSERT_TRUE(
      fx.sharded->Knn(fx.queries.row_view(0), 10, &out, &stats).ok());
  EXPECT_EQ(stats.shards_failed, 1u);
  EXPECT_TRUE(stats.partial);
  EXPECT_FALSE(out.empty());
  // Destruction joins the straggler without deadlocking (covered by the
  // fixture going out of scope under ASAN/TSAN builds).
}

TEST_F(ShardFaultTest, BreakerTripsSkipsAndRecovers) {
  ShardedOptions opts;
  opts.num_shards = 2;
  opts.collection.dim = 8;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_probes = 3;
  ShardedFixture fx(opts, 120, 2);
  Failpoints::Instance().Arm("shard.knn.fail.0", FailpointSpec{.times = 2});

  auto query = [&](std::uint64_t* failed) {
    std::vector<Neighbor> out;
    SearchStats stats;
    ASSERT_TRUE(
        fx.sharded->Knn(fx.queries.row_view(0), 5, &out, &stats).ok());
    *failed = stats.shards_failed;
  };

  std::uint64_t failed = 0;
  query(&failed);  // failure 1 of 2
  EXPECT_EQ(failed, 1u);
  query(&failed);  // failure 2 of 2 -> breaker trips
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(fx.sharded->BreakerCooldownRemaining(0),
            opts.breaker_cooldown_probes);
  std::uint64_t probes_when_tripped =
      Failpoints::Instance().Evaluations("shard.knn.fail.0");
  for (std::uint32_t i = 0; i < opts.breaker_cooldown_probes; ++i) {
    query(&failed);  // sat out: still reported failed, but never probed
    EXPECT_EQ(failed, 1u);
  }
  EXPECT_EQ(Failpoints::Instance().Evaluations("shard.knn.fail.0"),
            probes_when_tripped);  // breaker really skipped the shard
  query(&failed);  // half-open probe; failpoint is exhausted -> healthy
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(fx.sharded->BreakerCooldownRemaining(0), 0u);
}

}  // namespace
}  // namespace vdb
