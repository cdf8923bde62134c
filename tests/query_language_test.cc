// Tests for the SQL-style query interface (§2.1/§2.4(2)) and the secure
// k-NN transform (§2.6(4)).

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/database.h"
#include "db/query_language.h"
#include "db/secure.h"
#include "index/hnsw.h"

namespace vdb {
namespace {

// ---------------------------------------------------------------- parsing

TEST(QueryParseTest, MinimalKnn) {
  auto parsed = ParseQuery(
      "SELECT knn(5) FROM products ORDER BY distance([1.0, 2.5, -3])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->collection, "products");
  EXPECT_EQ(parsed->k, 5u);
  EXPECT_FALSE(parsed->has_predicate);
  ASSERT_EQ(parsed->query_vector.size(), 3u);
  EXPECT_FLOAT_EQ(parsed->query_vector[0], 1.0f);
  EXPECT_FLOAT_EQ(parsed->query_vector[1], 2.5f);
  EXPECT_FLOAT_EQ(parsed->query_vector[2], -3.0f);
}

TEST(QueryParseTest, KeywordsAreCaseInsensitive) {
  auto parsed = ParseQuery(
      "select KNN(3) from c where x = 1 Order bY Distance([0])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->has_predicate);
}

TEST(QueryParseTest, FullPredicateGrammar) {
  auto parsed = ParseQuery(
      "SELECT knn(10) FROM c "
      "WHERE (price <= 99.5 AND brand != 'acme') "
      "  OR category IN (1, 2, 3) "
      "  OR NOT (stock BETWEEN 0 AND 5) "
      "ORDER BY distance([0.0, 0.0])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->predicate.ToString(),
            "(((price <= 99.5 AND brand != 'acme') OR category IN "
            "(1, 2, 3)) OR NOT (stock BETWEEN 0 AND 5))");
}

TEST(QueryParseTest, StringEscapes) {
  auto parsed = ParseQuery(
      "SELECT knn(1) FROM c WHERE name = 'o''brien' "
      "ORDER BY distance([1])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->predicate.ToString(), "name = 'o'brien'");
}

TEST(QueryParseTest, ExplainAnalyzePrefix) {
  auto parsed = ParseQuery(
      "EXPLAIN ANALYZE SELECT knn(5) FROM c ORDER BY distance([1])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->explain_analyze);
  EXPECT_EQ(parsed->k, 5u);

  parsed = ParseQuery("SELECT knn(5) FROM c ORDER BY distance([1])");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->explain_analyze);

  // EXPLAIN without ANALYZE is not in the dialect.
  EXPECT_FALSE(
      ParseQuery("EXPLAIN SELECT knn(5) FROM c ORDER BY distance([1])").ok());
}

TEST(QueryParseTest, RejectsMalformedQueries) {
  const char* bad[] = {
      "",
      "SELECT knn(0) FROM c ORDER BY distance([1])",     // k = 0
      "SELECT knn(1.5) FROM c ORDER BY distance([1])",   // fractional k
      "SELECT knn(5) FROM c",                            // no ORDER BY
      "SELECT knn(5) FROM c ORDER BY distance([])",      // empty vector
      "SELECT knn(5) FROM c ORDER BY distance([1)",      // unbalanced
      "SELECT knn(5) FROM c WHERE ORDER BY distance([1])",
      "SELECT knn(5) FROM c WHERE x ~ 3 ORDER BY distance([1])",
      "SELECT knn(5) FROM c WHERE x = 'open ORDER BY distance([1])",
      "SELECT knn(5) FROM c ORDER BY distance([1]) garbage",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseQuery(text).ok()) << text;
  }
}

// -------------------------------------------------------------- execution

struct QlFixture {
  Database db;
  FloatMatrix data;

  QlFixture() {
    CollectionOptions opts;
    opts.dim = 8;
    opts.attributes = {{"category", AttrType::kInt64},
                       {"price", AttrType::kDouble}};
    opts.index_factory = [] {
      HnswOptions o;
      o.ef_construction = 64;
      return std::make_unique<HnswIndex>(o);
    };
    auto* c = db.CreateCollection("items", opts).value();
    SyntheticOptions synth;
    synth.n = 500;
    synth.dim = 8;
    synth.seed = 3;
    data = GaussianClusters(synth);
    for (std::size_t i = 0; i < data.rows(); ++i) {
      (void)c->Insert(i, data.row_view(i),
                      {{"category", std::int64_t(i % 4)},
                       {"price", double(i)}});
    }
    (void)c->BuildIndex();
  }

  std::string VectorLiteral(std::size_t row) const {
    std::string out = "[";
    for (std::size_t j = 0; j < data.cols(); ++j) {
      if (j) out += ", ";
      out += std::to_string(data.at(row, j));
    }
    return out + "]";
  }
};

TEST(QueryExecuteTest, PlainKnnMatchesApi) {
  QlFixture fx;
  std::string sql = "SELECT knn(5) FROM items ORDER BY distance(" +
                    fx.VectorLiteral(42) + ")";
  auto via_sql = ExecuteQuery(&fx.db, sql);
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();
  auto* c = fx.db.GetCollection("items").value();
  std::vector<Neighbor> via_api;
  ASSERT_TRUE(c->Knn(fx.data.row_view(42), 5, &via_api).ok());
  ASSERT_EQ(via_sql->size(), via_api.size());
  EXPECT_EQ((*via_sql)[0].id, 42u);
  for (std::size_t i = 0; i < via_api.size(); ++i) {
    EXPECT_EQ((*via_sql)[i].id, via_api[i].id);
  }
}

TEST(QueryExecuteTest, HybridHonorsWhereClause) {
  QlFixture fx;
  std::string sql =
      "SELECT knn(5) FROM items WHERE category = 2 AND price < 400.0 "
      "ORDER BY distance(" + fx.VectorLiteral(10) + ")";
  ExecStats stats;
  auto results = ExecuteQuery(&fx.db, sql, &stats);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_FALSE(results->empty());
  for (const auto& nb : *results) {
    EXPECT_EQ(nb.id % 4, 2u);
    EXPECT_LT(nb.id, 400u);
  }
  EXPECT_GE(stats.est_selectivity, 0.0);  // optimizer consulted
}

TEST(QueryExecuteTest, ExplainAnalyzeRendersSpanTree) {
  QlFixture fx;
  std::string sql =
      "EXPLAIN ANALYZE SELECT knn(5) FROM items "
      "WHERE category = 2 AND price < 400.0 "
      "ORDER BY distance(" + fx.VectorLiteral(10) + ")";
  auto traced = ExecuteQueryTraced(&fx.db, sql);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_FALSE(traced->rows.empty());
  for (const auto& nb : traced->rows) EXPECT_EQ(nb.id % 4, 2u);
  EXPECT_FALSE(traced->plan.empty());
  // The rendered tree covers the pipeline stages with per-stage times.
  EXPECT_NE(traced->explain.find("plan: " + traced->plan),
            std::string::npos);
  EXPECT_NE(traced->explain.find("query"), std::string::npos);
  EXPECT_NE(traced->explain.find("parse"), std::string::npos);
  EXPECT_NE(traced->explain.find("ms"), std::string::npos);
}

TEST(QueryExecuteTest, TracedWithoutExplainIsSilent) {
  QlFixture fx;
  std::string sql = "SELECT knn(5) FROM items ORDER BY distance(" +
                    fx.VectorLiteral(42) + ")";
  auto traced = ExecuteQueryTraced(&fx.db, sql);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_TRUE(traced->explain.empty());
  ASSERT_EQ(traced->rows.size(), 5u);
  EXPECT_EQ(traced->rows[0].id, 42u);
  // Same rows as the untraced wrapper.
  auto rows = ExecuteQuery(&fx.db, sql);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), traced->rows.size());
  for (std::size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i].id, traced->rows[i].id);
  }
}

TEST(QueryExecuteTest, ErrorsSurfaceCleanly) {
  QlFixture fx;
  EXPECT_EQ(ExecuteQuery(&fx.db,
                         "SELECT knn(5) FROM missing ORDER BY distance([1])")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecuteQuery(&fx.db,
                         "SELECT knn(5) FROM items ORDER BY distance([1])")
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // dim mismatch
  EXPECT_EQ(ExecuteQuery(nullptr, "x").status().code(),
            StatusCode::kInvalidArgument);
}

// Every completion, failed ones included, lands in the query histogram.
TEST(QueryExecuteTest, EveryCompletionObservesQueryLatency) {
  QlFixture fx;
  Histogram& latency = Registry::Global().GetHistogram("vdb_query_seconds");
  const std::uint64_t before = latency.Count();
  ASSERT_TRUE(ExecuteQuery(&fx.db, "SELECT knn(5) FROM items ORDER BY "
                                   "distance(" + fx.VectorLiteral(1) + ")")
                  .ok());
  EXPECT_FALSE(ExecuteQuery(&fx.db, "SELECT knn(").ok());
  EXPECT_FALSE(
      ExecuteQuery(&fx.db, "SELECT knn(5) FROM missing ORDER BY distance([1])")
          .ok());
  EXPECT_EQ(latency.Count(), before + 3);
}

// ------------------------------------------------------------- secure kNN

TEST(SecureKnnTest, IsometryAndRoundTrip) {
  auto transform = SecureL2Transform::Generate(16, 7);
  ASSERT_TRUE(transform.ok());
  Rng rng(5);
  auto scorer = Scorer::Create(MetricSpec::L2(), 16).value();
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> a(16), b(16);
    for (std::size_t j = 0; j < 16; ++j) {
      a[j] = rng.NextGaussian();
      b[j] = rng.NextGaussian();
    }
    auto ea = transform->Encrypt(a);
    auto eb = transform->Encrypt(b);
    // Distances preserved exactly (up to float rounding).
    float raw = scorer.Distance(a.data(), b.data());
    float enc = scorer.Distance(ea.data(), eb.data());
    EXPECT_NEAR(raw, enc, 1e-2f * (1.0f + raw));
    // Ciphertext is not the plaintext.
    float moved = scorer.Distance(a.data(), ea.data());
    EXPECT_GT(moved, 1.0f);
    // Owner can recover the vector.
    auto back = transform->Decrypt(ea);
    for (std::size_t j = 0; j < 16; ++j) EXPECT_NEAR(back[j], a[j], 1e-3f);
  }
}

TEST(SecureKnnTest, DifferentSeedsDifferentCiphertexts) {
  auto t1 = SecureL2Transform::Generate(8, 1);
  auto t2 = SecureL2Transform::Generate(8, 2);
  std::vector<float> x(8, 1.0f);
  auto e1 = t1->Encrypt(x);
  auto e2 = t2->Encrypt(x);
  float diff = 0;
  for (std::size_t j = 0; j < 8; ++j) diff += std::fabs(e1[j] - e2[j]);
  EXPECT_GT(diff, 1.0f);
}

TEST(SecureKnnTest, ServerSideSearchOverCiphertextsMatchesPlaintext) {
  // The untrusted "server" builds an HNSW over encrypted vectors and
  // answers an encrypted query; ids must match the plaintext search.
  SyntheticOptions opts;
  opts.n = 1000;
  opts.dim = 16;
  opts.seed = 9;
  FloatMatrix plain = GaussianClusters(opts);
  auto transform = SecureL2Transform::Generate(16, 99);
  ASSERT_TRUE(transform.ok());
  FloatMatrix encrypted(plain.rows(), 16);
  for (std::size_t i = 0; i < plain.rows(); ++i) {
    auto e = transform->Encrypt(plain.row_view(i));
    std::copy(e.begin(), e.end(), encrypted.row(i));
  }
  HnswIndex plain_index, cipher_index;
  ASSERT_TRUE(plain_index.Build(plain, {}).ok());
  ASSERT_TRUE(cipher_index.Build(encrypted, {}).ok());

  FloatMatrix queries = PerturbedQueries(plain, 20, 0.02f, 4);
  SearchParams p;
  p.k = 10;
  p.ef = 128;
  int top1_match = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    auto eq = transform->Encrypt(queries.row_view(q));
    std::vector<Neighbor> plain_hits, cipher_hits;
    ASSERT_TRUE(plain_index.Search(queries.row(q), p, &plain_hits).ok());
    ASSERT_TRUE(cipher_index.Search(eq.data(), p, &cipher_hits).ok());
    top1_match += plain_hits[0].id == cipher_hits[0].id;
  }
  EXPECT_GE(top1_match, 19);  // isometry: same geometry, same answers
}

}  // namespace
}  // namespace vdb
