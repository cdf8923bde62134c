// Retrieval-augmented generation (RAG) document store — the paper's §1
// motivating application for VDBMSs. Documents are chunked; each document
// is a *multi-vector entity* (one vector per chunk) queried with aggregate
// scores (§2.1, §2.6(6)). Updates arrive continuously; rows no index
// holds yet form the collection's growing segment (§2.3(3)), which every
// query brute-forces, so new chunks are searchable at once.
//
//   ./build/examples/rag_retrieval

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/collection.h"
#include "db/embedder.h"
#include "index/hnsw.h"

#include "example_util.h"

namespace {

struct Doc {
  const char* title;
  std::vector<const char*> chunks;
};

const Doc kCorpus[] = {
    {"HNSW paper notes",
     {"hierarchical navigable small world graphs for nearest neighbor search",
      "nodes are assigned random layers from an exponential distribution",
      "greedy search descends layers then beam searches the bottom layer"}},
    {"Product quantization survey",
     {"product quantization compresses vectors into subspace codebook codes",
      "asymmetric distance computation uses lookup tables per query",
      "optimized product quantization learns a rotation before encoding"}},
    {"Postgres pgvector guide",
     {"pgvector adds a vector column type to postgresql",
      "queries use the relational optimizer for plan enumeration",
      "ivfflat and hnsw indexes are available for similarity search"}},
    {"Kubernetes networking",
     {"pods communicate over a flat cluster network",
      "services load balance traffic to healthy endpoints",
      "network policies restrict ingress and egress by label"}},
    {"Sourdough bread recipe",
     {"feed the starter twice daily until it doubles",
      "autolyse the flour and water before adding salt",
      "bake in a dutch oven at high heat for a crisp crust"}},
};

}  // namespace

int main() {
  using namespace vdb;

  const std::size_t kDim = 128;
  auto embedder = std::make_shared<HashingNgramEmbedder>(kDim);

  CollectionOptions options;
  options.dim = kDim;
  options.metric = MetricSpec::Cosine();
  options.attributes = {{"title", AttrType::kString}};
  options.index_factory = [] {
    HnswOptions hnsw;
    hnsw.m = 8;
    hnsw.ef_construction = 48;
    return std::make_unique<HnswIndex>(hnsw);
  };
  auto created = Collection::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    return 1;
  }
  Collection& corpus = **created;

  // Each document becomes a multi-vector entity: one vector per chunk.
  VectorId doc_id = 0;
  for (const Doc& doc : kCorpus) {
    FloatMatrix chunks(doc.chunks.size(), kDim);
    for (std::size_t c = 0; c < doc.chunks.size(); ++c) {
      auto vec = embedder->Embed(doc.chunks[c]);
      std::copy(vec.begin(), vec.end(), chunks.row(c));
    }
    Status status = corpus.InsertEntity(
        doc_id++, chunks, {{"title", std::string(doc.title)}});
    if (!status.ok()) {
      std::fprintf(stderr, "insert: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("corpus: %zu documents (multi-vector entities)\n",
              corpus.Size());

  auto ask = [&](const std::string& question) {
    std::printf("\nQ: %s\n", question.c_str());
    // Multi-vector query: the question plus a keyword variant, aggregated
    // by mean-of-best-chunk-match.
    FloatMatrix query_vectors(1, kDim);
    auto qv = embedder->Embed(question);
    std::copy(qv.begin(), qv.end(), query_vectors.row(0));
    auto agg = Aggregator::Create(AggregateKind::kMean).value();
    std::vector<Neighbor> hits;
    Status status = corpus.MultiVectorKnn(query_vectors, agg, 2, &hits);
    if (!status.ok()) {
      std::printf("   error: %s\n", status.ToString().c_str());
      return;
    }
    for (const auto& hit : hits) {
      auto title = corpus.attributes().Get(hit.id, "title");
      std::printf("   [%.3f] %s\n", hit.dist,
                  title.ok() ? std::get<std::string>(*title).c_str() : "?");
    }
  };

  ask("how does hnsw search work");
  ask("compressing embeddings with codebooks");
  ask("vector search inside a relational database");
  ask("how do I bake bread");

  // Live update: a new document arrives and is immediately retrievable.
  {
    FloatMatrix chunks(2, kDim);
    auto v0 = embedder->Embed("disk resident vector indexes diskann spann");
    auto v1 = embedder->Embed("billion scale search with ssd posting lists");
    std::copy(v0.begin(), v0.end(), chunks.row(0));
    std::copy(v1.begin(), v1.end(), chunks.row(1));
    OrDie(corpus.InsertEntity(
        100, chunks, {{"title", std::string("Disk-based ANN notes")}}));
  }
  ask("disk resident vector indexes for billion scale search");

  return 0;
}
