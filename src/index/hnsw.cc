#include "index/hnsw.h"

#include <algorithm>
#include <cmath>

#include "index/graph_util.h"
#include "storage/serializer.h"

namespace {
constexpr std::uint32_t kHnswMagic = 0x56484E57;  // "VHNW"
}  // namespace

namespace vdb {

Status HnswIndex::Build(FloatMatrix data,
                        std::span<const VectorId> ids) {
  if (opts_.m < 2) return Status::InvalidArgument("hnsw: m must be >= 2");
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  level_mult_ = 1.0 / std::log(static_cast<double>(opts_.m));
  links_.clear();
  links_.reserve(TotalRows());
  max_level_ = -1;
  Rng rng(opts_.seed);
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    links_.emplace_back();
    Insert(i, &rng);
  }
  return Status::Ok();
}

Status HnswIndex::Add(const float* vec, VectorId id) {
  if (links_.empty() && TotalRows() == 0) {
    return Status::FailedPrecondition("hnsw: build before add");
  }
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  links_.emplace_back();
  Rng rng(opts_.seed ^ (0x9e3779b97f4a7c15ull * (idx + 1)));
  Insert(idx, &rng);
  return Status::Ok();
}

int HnswIndex::RandomLevel(Rng* rng) const {
  double u = std::max(rng->NextDouble(), 1e-12);
  return static_cast<int>(-std::log(u) * level_mult_);
}

std::span<const std::uint32_t> HnswIndex::Neighbors(std::uint32_t u,
                                                    int level) const {
  const auto& per_level = links_[u];
  if (level >= static_cast<int>(per_level.size())) return {};
  return per_level[level];
}

std::uint32_t HnswIndex::Descend(const float* query, int down_to,
                                 SearchStats* stats) const {
  std::uint32_t cur = entry_point_;
  for (int l = max_level_; l > down_to; --l) {
    cur = graph::GreedyDescend(
        cur, [this, l](std::uint32_t u) { return Neighbors(u, l); },
        [this, query](std::uint32_t u) {
          return scorer_.Distance(query, vector(u));
        },
        stats);
  }
  return cur;
}

std::vector<std::pair<float, std::uint32_t>> HnswIndex::SearchLayer(
    const float* query, std::uint32_t entry, std::size_t ef,
    int level) const {
  std::uint32_t entries[1] = {entry};
  auto results = graph::BeamSearch(
      scorer_, rows_.vectors().data(), query, entries, ef, links_.size(),
      FilterMode::kNone,
      [this, level](std::uint32_t u) { return Neighbors(u, level); },
      [](std::uint32_t) { return true; }, nullptr);
  std::vector<std::pair<float, std::uint32_t>> out;
  out.reserve(results.size());
  for (const auto& c : results) out.emplace_back(c.dist, c.idx);
  return out;
}

std::vector<std::uint32_t> HnswIndex::SelectNeighbors(
    const float* query,
    const std::vector<std::pair<float, std::uint32_t>>& candidates,
    std::size_t m) const {
  (void)query;
  // Candidates arrive ascending by distance to the query. The heuristic
  // keeps a candidate only if it is closer to the query than to any
  // already-selected neighbor (edge diversity; Malkov & Yashunin Alg. 4).
  std::vector<std::uint32_t> selected;
  if (!opts_.use_select_heuristic) {
    for (const auto& [dist, idx] : candidates) {
      if (selected.size() >= m) break;
      selected.push_back(idx);
    }
    return selected;
  }
  for (const auto& [dist, idx] : candidates) {
    if (selected.size() >= m) break;
    bool diverse = true;
    for (std::uint32_t s : selected) {
      if (scorer_.Distance(vector(idx), vector(s)) < dist) {
        diverse = false;
        break;
      }
    }
    if (diverse) selected.push_back(idx);
  }
  // Fill remaining slots with the nearest rejected candidates.
  if (selected.size() < m) {
    for (const auto& [dist, idx] : candidates) {
      if (selected.size() >= m) break;
      if (std::find(selected.begin(), selected.end(), idx) == selected.end()) {
        selected.push_back(idx);
      }
    }
  }
  return selected;
}

void HnswIndex::Insert(std::uint32_t idx, Rng* rng) {
  int level = RandomLevel(rng);
  links_[idx].assign(level + 1, {});
  if (max_level_ < 0) {
    entry_point_ = idx;
    max_level_ = level;
    return;
  }

  const float* q = vector(idx);
  // Greedy descent through layers above the node's top level.
  std::uint32_t cur = Descend(q, level, nullptr);

  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto candidates = SearchLayer(q, cur, opts_.ef_construction, l);
    auto selected = SelectNeighbors(q, candidates, MaxDegree(l));
    for (std::uint32_t nb : selected) {
      links_[idx][l].push_back(nb);
      auto& back = links_[nb][l];
      back.push_back(idx);
      if (back.size() > MaxDegree(l)) {
        // Shrink with the same heuristic, from the neighbor's perspective.
        std::vector<std::pair<float, std::uint32_t>> cand;
        cand.reserve(back.size());
        for (std::uint32_t b : back) {
          cand.emplace_back(scorer_.Distance(vector(nb), vector(b)), b);
        }
        std::sort(cand.begin(), cand.end());
        back = SelectNeighbors(vector(nb), cand, MaxDegree(l));
      }
    }
    if (!candidates.empty()) cur = candidates.front().second;
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = idx;
  }
}

Status HnswIndex::SearchWithEntryHint(const float* query, VectorId hint,
                                      const SearchParams& params,
                                      std::vector<Neighbor>* out,
                                      SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  std::uint32_t entries[1] = {rows_.ids().RowOf(hint)};
  if (entries[0] == RowIds::kNoRow) {
    return Status::NotFound("entry hint not indexed");
  }
  GraphSearch(
      query, entries, [this](std::uint32_t u) { return Neighbors(u, 0); },
      opts_.default_ef, params, out, stats);
  return Status::Ok();
}

Status HnswIndex::SearchImpl(const float* query, const SearchParams& params,
                             std::vector<Neighbor>* out,
                             SearchStats* stats) const {
  out->clear();
  if (links_.empty()) return Status::Ok();
  std::uint32_t entries[1] = {Descend(query, 0, stats)};
  GraphSearch(
      query, entries, [this](std::uint32_t u) { return Neighbors(u, 0); },
      opts_.default_ef, params, out, stats);
  return Status::Ok();
}

Status HnswIndex::RangeSearch(const float* query, float radius,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  if (links_.empty()) return Status::Ok();

  // Descend to layer 0 as usual, then flood-fill: expand every node whose
  // distance is within the slack halo of the radius, reporting the ones
  // inside the radius. The halo lets the walk cross small gaps in dense
  // annuli around the boundary.
  const float slack = 1.3f;
  std::uint32_t cur = Descend(query, 0, stats);

  std::vector<std::uint32_t> frontier = {cur};
  Bitset visited(links_.size());
  visited.Set(cur);
  {
    float d = scorer_.Distance(query, vector(cur));
    if (stats != nullptr) ++stats->distance_comps;
    if (d <= radius && !IsDeleted(cur)) out->push_back({label(cur), d});
    if (d > radius * slack) {
      // Entry landed outside the halo: fall back to a k-NN probe to find
      // a seed inside the ball, if any.
      SearchParams p;
      p.k = 1;
      p.ef = 32;
      std::vector<Neighbor> seed;
      VDB_RETURN_IF_ERROR(SearchImpl(query, p, &seed, stats));
      if (seed.empty() || seed[0].dist > radius) {
        std::sort(out->begin(), out->end());
        return Status::Ok();  // ball is (almost surely) empty
      }
      frontier = {rows_.ids().RowOf(seed[0].id)};
      out->clear();
      visited.ClearAll();
      visited.Set(frontier[0]);
      float sd = seed[0].dist;
      if (!IsDeleted(frontier[0])) {
        out->push_back({seed[0].id, sd});
      }
    }
  }
  while (!frontier.empty()) {
    std::uint32_t u = frontier.back();
    frontier.pop_back();
    if (stats != nullptr) ++stats->nodes_visited;
    for (std::uint32_t nb : Neighbors(u, 0)) {
      if (visited.Test(nb)) continue;
      visited.Set(nb);
      float d = scorer_.Distance(query, vector(nb));
      if (stats != nullptr) ++stats->distance_comps;
      if (d <= radius && !IsDeleted(nb)) out->push_back({label(nb), d});
      if (d <= radius * slack) frontier.push_back(nb);
    }
  }
  std::sort(out->begin(), out->end());
  return Status::Ok();
}

Status HnswIndex::Save(const std::string& path) const {
  BinaryWriter w(kHnswMagic);
  WriteMetricSpec(&w, opts_.metric);
  w.U64(opts_.m);
  w.U64(opts_.ef_construction);
  w.U64(opts_.default_ef);
  w.U64(opts_.seed);
  w.U8(opts_.use_select_heuristic ? 1 : 0);
  SaveRows(&w);
  w.U32(entry_point_);
  w.U32(static_cast<std::uint32_t>(max_level_ + 1));  // bias: -1 allowed
  w.U64(links_.size());
  for (const auto& per_node : links_) {
    w.U32(static_cast<std::uint32_t>(per_node.size()));
    for (const auto& adj : per_node) w.U32Vector(adj);
  }
  return w.WriteTo(path);
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Load(const std::string& path) {
  VDB_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path, kHnswMagic));
  HnswOptions opts;
  VDB_ASSIGN_OR_RETURN(opts.metric, ReadMetricSpec(&r));
  VDB_ASSIGN_OR_RETURN(opts.m, r.U64());
  VDB_ASSIGN_OR_RETURN(opts.ef_construction, r.U64());
  VDB_ASSIGN_OR_RETURN(opts.default_ef, r.U64());
  VDB_ASSIGN_OR_RETURN(opts.seed, r.U64());
  VDB_ASSIGN_OR_RETURN(std::uint8_t heuristic, r.U8());
  opts.use_select_heuristic = heuristic != 0;

  auto index = std::make_unique<HnswIndex>(opts);
  VDB_RETURN_IF_ERROR(index->LoadRows(&r, opts.metric));
  index->level_mult_ = 1.0 / std::log(static_cast<double>(opts.m));

  VDB_ASSIGN_OR_RETURN(index->entry_point_, r.U32());
  VDB_ASSIGN_OR_RETURN(std::uint32_t biased_level, r.U32());
  index->max_level_ = static_cast<int>(biased_level) - 1;
  VDB_ASSIGN_OR_RETURN(std::uint64_t nodes, r.U64());
  if (nodes != index->TotalRows()) {
    return Status::Corruption("links/rows mismatch");
  }
  index->links_.resize(nodes);
  for (auto& per_node : index->links_) {
    VDB_ASSIGN_OR_RETURN(std::uint32_t levels, r.U32());
    per_node.resize(levels);
    for (auto& adj : per_node) {
      VDB_ASSIGN_OR_RETURN(adj, r.U32Vector());
      for (std::uint32_t nb : adj) {
        if (nb >= nodes) return Status::Corruption("bad neighbor id");
      }
    }
  }
  if (index->entry_point_ >= nodes && nodes > 0) {
    return Status::Corruption("bad entry point");
  }
  return index;
}

std::size_t HnswIndex::MemoryBytes() const {
  std::size_t bytes = rows_.MemoryBytes();
  for (const auto& per_node : links_) {
    for (const auto& adj : per_node) bytes += adj.size() * sizeof(std::uint32_t);
    bytes += per_node.size() * sizeof(std::vector<std::uint32_t>);
  }
  return bytes;
}

}  // namespace vdb
