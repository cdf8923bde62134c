// Tests for index persistence (Save/Load): exact search equivalence after
// a round trip, tombstone survival, post-load mutability, and corruption
// detection via the CRC-guarded container.

#include <unistd.h>

#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/synthetic.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "snapshot_fixtures.h"
#include "storage/serializer.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_persist_" + tag + "_" +
         std::to_string(::getpid());
}

struct PersistFixture {
  FloatMatrix data;
  FloatMatrix queries;

  PersistFixture() {
    SyntheticOptions opts;
    opts.n = 1500;
    opts.dim = 12;
    opts.num_clusters = 12;
    opts.seed = 19;
    data = GaussianClusters(opts);
    queries = PerturbedQueries(data, 25, 0.02f, 2);
  }
};

template <typename Index>
void ExpectIdenticalResults(const Index& a, const Index& b,
                            const FloatMatrix& queries,
                            const SearchParams& params) {
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> ra, rb;
    ASSERT_TRUE(a.Search(queries.row(q), params, &ra).ok());
    ASSERT_TRUE(b.Search(queries.row(q), params, &rb).ok());
    ASSERT_EQ(ra.size(), rb.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id) << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(ra[i].dist, rb[i].dist);
    }
  }
}

TEST(HnswPersistenceTest, RoundTripIsBitIdentical) {
  PersistFixture fx;
  HnswOptions opts;
  opts.m = 8;
  HnswIndex original(opts);
  std::vector<VectorId> ids(fx.data.rows());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + i;
  ASSERT_TRUE(original.Build(fx.data, ids).ok());
  ASSERT_TRUE(original.Remove(1003).ok());  // tombstone must survive

  std::string path = TempPath("hnsw");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = HnswIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Size(), original.Size());
  EXPECT_EQ((*loaded)->max_level(), original.max_level());

  SearchParams p;
  p.k = 10;
  p.ef = 64;
  ExpectIdenticalResults(original, **loaded, fx.queries, p);

  // The deleted id stays deleted; the loaded index stays mutable.
  std::vector<Neighbor> out;
  ASSERT_TRUE((*loaded)->Search(fx.data.row(3), p, &out).ok());
  for (const auto& nb : out) EXPECT_NE(nb.id, 1003u);
  std::vector<float> fresh(fx.data.cols(), 0.5f);
  ASSERT_TRUE((*loaded)->Add(fresh.data(), 99999).ok());
  ASSERT_TRUE((*loaded)->Search(fresh.data(), p, &out).ok());
  EXPECT_EQ(out[0].id, 99999u);
}

// A removed and re-added label has two rows; the tombstone must land on
// the old one after a round trip.
TEST(HnswPersistenceTest, ReAddedLabelSurvivesRoundTrip) {
  PersistFixture fx;
  HnswIndex original;
  ASSERT_TRUE(original.Build(fx.data, {}).ok());
  ASSERT_TRUE(original.Remove(3).ok());
  std::vector<float> fresh(fx.data.cols(), 0.5f);
  ASSERT_TRUE(original.Add(fresh.data(), 3).ok());

  std::string path = TempPath("hnsw_readd");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = HnswIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Size(), fx.data.rows());
  SearchParams p;
  p.k = 10;
  p.ef = 64;
  ExpectIdenticalResults(original, **loaded, fx.queries, p);
  std::vector<Neighbor> out;
  ASSERT_TRUE((*loaded)->Search(fresh.data(), p, &out).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_EQ(out[0].dist, 0.0f);
}

TEST(IvfPersistenceTest, RoundTripIsBitIdentical) {
  PersistFixture fx;
  IvfOptions opts;
  opts.nlist = 24;
  IvfFlatIndex original(opts);
  ASSERT_TRUE(original.Build(fx.data, {}).ok());
  ASSERT_TRUE(original.Remove(7).ok());

  std::string path = TempPath("ivf");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = IvfFlatIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Size(), original.Size());
  EXPECT_EQ((*loaded)->nlist(), original.nlist());

  SearchParams p;
  p.k = 10;
  p.nprobe = 8;
  ExpectIdenticalResults(original, **loaded, fx.queries, p);

  // Post-load Add routes into the restored coarse quantizer.
  std::vector<float> fresh(fx.data.cols(), 0.25f);
  ASSERT_TRUE((*loaded)->Add(fresh.data(), 77777).ok());
  std::vector<Neighbor> out;
  ASSERT_TRUE((*loaded)->Search(fresh.data(), p, &out).ok());
  EXPECT_EQ(out[0].id, 77777u);
}

TEST(IvfPqPersistenceTest, RoundTripPreservesCodesAndCodebooks) {
  PersistFixture fx;
  IvfPqOptions opts;
  opts.ivf.nlist = 16;
  opts.pq.m = 4;
  IvfPqIndex original(opts);
  ASSERT_TRUE(original.Build(fx.data, {}).ok());

  std::string path = TempPath("ivfpq");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = IvfPqIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Size(), original.Size());
  EXPECT_EQ((*loaded)->CodeBytesPerVector(), original.CodeBytesPerVector());

  SearchParams p;
  p.k = 10;
  p.nprobe = 8;
  ExpectIdenticalResults(original, **loaded, fx.queries, p);

  // OPQ variant declines persistence explicitly.
  IvfPqOptions oo = opts;
  oo.use_opq = true;
  oo.opq_iters = 2;
  IvfPqIndex opq_index(oo);
  ASSERT_TRUE(opq_index.Build(fx.data, {}).ok());
  EXPECT_EQ(opq_index.Save(TempPath("ivfopq")).code(),
            StatusCode::kUnsupported);
}

// A snapshot written before the one row codec loads with its labels and
// tombstones (see snapshot_fixtures.h), and saving it again reproduces it
// byte for byte.
template <typename Index>
void CheckFixture(std::span<const std::uint8_t> bytes, const std::string& tag) {
  const std::string fixture(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size());
  const std::string path = TempPath(tag + "_fixture");
  std::ofstream(path, std::ios::binary) << fixture;
  auto loaded = Index::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Index& index = **loaded;

  std::vector<VectorId> labels;
  for (VectorId id = 100; id < 116; ++id) labels.push_back(id);
  labels.push_back(105);
  EXPECT_EQ(index.row_ids().labels(), labels);
  EXPECT_EQ(index.row_ids().DeletedRows(),
            (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(index.Size(), 15u);

  // Every live row comes back once; the removed label and the re-added
  // label's old row do not.
  SearchParams p;
  p.k = 20;
  p.ef = 64;
  p.nprobe = 2;
  const float readded[4] = {0.5f, -0.25f, 0.75f, 1.0f};
  std::vector<Neighbor> out;
  ASSERT_TRUE(index.Search(readded, p, &out).ok());
  ASSERT_EQ(out.size(), 15u);
  EXPECT_EQ(out[0].id, 105u);
  EXPECT_EQ(out[0].dist, 0.0f);
  std::set<VectorId> ids;
  for (const Neighbor& nb : out) {
    EXPECT_NE(nb.id, 103u);
    EXPECT_TRUE(ids.insert(nb.id).second) << "duplicate " << nb.id;
  }

  const std::string again = TempPath(tag + "_resaved");
  ASSERT_TRUE(index.Save(again).ok());
  std::ifstream in(again, std::ios::binary);
  const std::string resaved((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_TRUE(resaved == fixture) << "re-saved snapshot differs";
}

TEST(SnapshotFixtureTest, HnswLoadsAndResavesByteForByte) {
  CheckFixture<HnswIndex>(fixtures::kHnswSnapshot, "hnsw");
}

TEST(SnapshotFixtureTest, IvfFlatLoadsAndResavesByteForByte) {
  CheckFixture<IvfFlatIndex>(fixtures::kIvfFlatSnapshot, "ivf_flat");
}

TEST(SnapshotFixtureTest, IvfPqLoadsAndResavesByteForByte) {
  CheckFixture<IvfPqIndex>(fixtures::kIvfPqSnapshot, "ivf_pq");
}

TEST(PersistenceTest, DetectsCorruptionAndWrongMagic) {
  PersistFixture fx;
  HnswIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  std::string path = TempPath("corrupt");
  ASSERT_TRUE(index.Save(path).ok());

  // Wrong loader: IVF loader on an HNSW file reports bad magic.
  EXPECT_EQ(IvfFlatIndex::Load(path).status().code(),
            StatusCode::kCorruption);

  // Flipped payload byte: CRC catches it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    char byte = 0x7F;
    f.write(&byte, 1);
  }
  EXPECT_EQ(HnswIndex::Load(path).status().code(), StatusCode::kCorruption);

  // Truncated file.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  auto full = static_cast<std::size_t>(in.tellg());
  in.close();
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(full / 2)), 0);
  EXPECT_EQ(HnswIndex::Load(path).status().code(), StatusCode::kCorruption);

  EXPECT_FALSE(HnswIndex::Load(TempPath("missing")).ok());
}

TEST(SerializerTest, PrimitivesRoundTrip) {
  std::string path = TempPath("prims");
  {
    BinaryWriter w(0xABCD1234);
    w.U8(7);
    w.U32(123456789);
    w.U64(0xDEADBEEFCAFEBABEull);
    w.F32(-3.25f);
    FloatMatrix m(2, 3);
    for (int i = 0; i < 6; ++i) m.data()[i] = static_cast<float>(i);
    w.Matrix(m);
    w.U32Vector({1, 2, 3});
    w.U64Vector({10, 20});
    WriteMetricSpec(&w, MetricSpec::Minkowski(2.5f));
    ASSERT_TRUE(w.WriteTo(path).ok());
  }
  auto r = BinaryReader::Open(path, 0xABCD1234);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->U8(), 7);
  EXPECT_EQ(*r->U32(), 123456789u);
  EXPECT_EQ(*r->U64(), 0xDEADBEEFCAFEBABEull);
  EXPECT_FLOAT_EQ(*r->F32(), -3.25f);
  auto m = r->Matrix();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 2u);
  EXPECT_FLOAT_EQ(m->at(1, 2), 5.0f);
  EXPECT_EQ(*r->U32Vector(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(*r->U64Vector(), (std::vector<std::uint64_t>{10, 20}));
  auto spec = ReadMetricSpec(&(*r));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->metric, Metric::kMinkowski);
  EXPECT_FLOAT_EQ(spec->minkowski_p, 2.5f);
  EXPECT_EQ(r->Remaining(), 0u);
  // Reading past the end is an error, not UB.
  EXPECT_FALSE(r->U8().ok());
}

}  // namespace
}  // namespace vdb
