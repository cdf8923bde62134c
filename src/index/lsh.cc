#include "index/lsh.h"

#include <algorithm>
#include <cmath>

#include "core/rng.h"
#include "core/simd.h"
#include "core/topk.h"

namespace vdb {

Status LshIndex::Build(FloatMatrix data, std::span<const VectorId> ids) {
  if (opts_.num_tables == 0 || opts_.hashes_per_table == 0) {
    return Status::InvalidArgument("lsh: L and K must be positive");
  }
  if (opts_.hashes_per_table > 63) {
    return Status::InvalidArgument("lsh: K must be <= 63");
  }
  if (opts_.family == LshFamily::kPStableL2 && opts_.bucket_width <= 0.0f) {
    return Status::InvalidArgument("lsh: bucket_width must be positive");
  }
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));

  const std::size_t total = opts_.num_tables * opts_.hashes_per_table;
  Rng rng(opts_.seed);
  projections_ = FloatMatrix(total, dim());
  offsets_.assign(total, 0.0f);
  for (std::size_t r = 0; r < total; ++r) {
    float* row = projections_.row(r);
    for (std::size_t j = 0; j < dim(); ++j) row[j] = rng.NextGaussian();
    if (opts_.family == LshFamily::kPStableL2) {
      offsets_[r] = rng.NextFloat(0.0f, opts_.bucket_width);
    }
  }

  tables_.assign(opts_.num_tables, {});
  for (std::uint32_t i = 0; i < TotalRows(); ++i) InsertIntoTables(i);
  return Status::Ok();
}

void LshIndex::HashRaw(std::size_t table, const float* x,
                       std::vector<std::int64_t>* raw) const {
  raw->resize(opts_.hashes_per_table);
  for (std::size_t j = 0; j < opts_.hashes_per_table; ++j) {
    std::size_t r = table * opts_.hashes_per_table + j;
    float proj = simd::InnerProduct(projections_.row(r), x, dim());
    if (opts_.family == LshFamily::kSignRandomHyperplane) {
      (*raw)[j] = proj >= 0.0f ? 1 : 0;
    } else {
      (*raw)[j] = static_cast<std::int64_t>(
          std::floor((proj + offsets_[r]) / opts_.bucket_width));
    }
  }
}

std::uint64_t LshIndex::CombineKey(const std::vector<std::int64_t>& raw) {
  // FNV-1a over the raw hash values: collisions across distinct raw tuples
  // are harmless (they only add candidates).
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t v : raw) {
    std::uint64_t u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void LshIndex::InsertIntoTables(std::uint32_t idx) {
  std::vector<std::int64_t> raw;
  for (std::size_t t = 0; t < opts_.num_tables; ++t) {
    HashRaw(t, vector(idx), &raw);
    tables_[t][CombineKey(raw)].push_back(idx);
  }
}

Status LshIndex::Add(const float* vec, VectorId id) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  InsertIntoTables(idx);
  return Status::Ok();
}

Status LshIndex::SearchImpl(const float* query, const SearchParams& params,
                            std::vector<Neighbor>* out,
                            SearchStats* stats) const {
  const int probes =
      params.lsh_probes >= 0 ? params.lsh_probes : opts_.default_probes;
  Bitset seen(TotalRows());
  TopK top(params.k);
  std::vector<std::int64_t> raw;

  auto scan_bucket = [&](std::size_t table, std::uint64_t key) {
    auto it = tables_[table].find(key);
    if (it == tables_[table].end()) return;
    if (stats != nullptr) ++stats->nodes_visited;
    for (std::uint32_t idx : it->second) {
      if (seen.Test(idx)) continue;
      seen.Set(idx);
      if (!Admissible(idx, params, stats)) continue;
      float dist = scorer_.Distance(query, vector(idx));
      if (stats != nullptr) ++stats->distance_comps;
      top.Push(label(idx), dist);
    }
  };

  for (std::size_t t = 0; t < opts_.num_tables; ++t) {
    HashRaw(t, query, &raw);
    scan_bucket(t, CombineKey(raw));
    // Multi-probe: perturb one raw coordinate at a time (bit flip for the
    // sign family, +/-1 offset for p-stable) in round-robin order.
    std::vector<std::int64_t> perturbed = raw;
    for (int p = 0; p < probes; ++p) {
      std::size_t j = static_cast<std::size_t>(p) % opts_.hashes_per_table;
      std::int64_t delta;
      if (opts_.family == LshFamily::kSignRandomHyperplane) {
        delta = perturbed[j] == raw[j] ? (raw[j] ? -1 : 1) : 0;
        perturbed[j] = raw[j] ^ 1;
      } else {
        delta = (p / static_cast<int>(opts_.hashes_per_table)) % 2 == 0 ? 1 : -1;
        perturbed[j] = raw[j] + delta;
      }
      scan_bucket(t, CombineKey(perturbed));
      perturbed[j] = raw[j];
    }
  }
  *out = top.Take();
  return Status::Ok();
}

std::size_t LshIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes() + projections_.ByteSize() +
                      offsets_.size() * sizeof(float);
  for (const auto& table : tables_) {
    bytes += table.size() * (sizeof(std::uint64_t) + sizeof(void*));
    for (const auto& [key, bucket] : table) {
      bytes += bucket.size() * sizeof(std::uint32_t);
    }
  }
  return bytes;
}

}  // namespace vdb
