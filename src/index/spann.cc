#include "index/spann.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "core/kmeans.h"
#include "core/simd.h"
#include "core/topk.h"

namespace vdb {

std::size_t SpannIndex::EntriesPerPage() const {
  // Posting entry: [uint32 internal id][dim x float].
  return opts_.file.page_size / EntrySize();
}

Status SpannIndex::Build(FloatMatrix data,
                         std::span<const VectorId> ids) {
  if (data.empty()) return Status::InvalidArgument("empty build data");
  if (opts_.metric.metric != Metric::kL2) {
    return Status::InvalidArgument("spann supports the L2 metric only");
  }
  dim_ = data.cols();
  VDB_ASSIGN_OR_RETURN(scorer_, Scorer::Create(opts_.metric, dim_));
  if (EntriesPerPage() == 0) {
    return Status::InvalidArgument("vector too large for page_size");
  }

  rows_.Reset(data.rows(), ids);

  KMeansOptions km;
  km.k = opts_.nlist;
  km.max_iters = opts_.kmeans_iters;
  km.seed = opts_.seed;
  VDB_ASSIGN_OR_RETURN(KMeansResult result, KMeans(data, km));
  centroids_ = std::move(result.centroids);

  // Closure assignment: replicate boundary vectors into every list whose
  // centroid is within (1+eps) of the nearest one (SPANN's multi-cluster
  // closure, which reduces boundary-miss I/O at query time).
  std::vector<std::vector<std::uint32_t>> lists(centroids_.rows());
  total_assignments_ = 0;
  const float closure = (1.0f + opts_.closure_eps) * (1.0f + opts_.closure_eps);
  for (std::uint32_t i = 0; i < data.rows(); ++i) {
    auto order = NearestCentroids(centroids_, data.row(i),
                                  std::min<std::size_t>(opts_.max_replicas,
                                                        centroids_.rows()));
    float dmin = simd::L2Sq(data.row(i), centroids_.row(order[0]), dim_);
    for (std::uint32_t c : order) {
      float d = simd::L2Sq(data.row(i), centroids_.row(c), dim_);
      if (c != order[0] && d > dmin * closure) break;
      lists[c].push_back(i);
      ++total_assignments_;
    }
  }

  // Serialize posting lists, page-aligned.
  VDB_ASSIGN_OR_RETURN(file_, PagedFile::Create(path_, opts_.file));
  postings_.assign(lists.size(), {});
  const std::size_t epp = EntriesPerPage();
  const std::size_t entry_size = EntrySize();
  std::vector<std::uint8_t> page(opts_.file.page_size, 0);
  std::uint64_t next_page = 0;
  for (std::size_t c = 0; c < lists.size(); ++c) {
    postings_[c].first_page = next_page;
    postings_[c].num_entries = static_cast<std::uint32_t>(lists[c].size());
    for (std::size_t off = 0; off < lists[c].size(); off += epp) {
      std::fill(page.begin(), page.end(), 0);
      std::size_t count = std::min(epp, lists[c].size() - off);
      for (std::size_t e = 0; e < count; ++e) {
        std::uint8_t* at = page.data() + e * entry_size;
        std::uint32_t idx = lists[c][off + e];
        std::memcpy(at, &idx, sizeof(idx));
        std::memcpy(at + sizeof(idx), data.row(idx), dim_ * sizeof(float));
      }
      VDB_RETURN_IF_ERROR(file_->WritePage(next_page++, page.data()));
    }
    if (lists[c].empty()) postings_[c].first_page = next_page;
  }
  file_->ResetCounters();
  return Status::Ok();
}

Status SpannIndex::SearchImpl(const float* query, const SearchParams& params,
                              std::vector<Neighbor>* out,
                              SearchStats* stats) const {
  if (file_ == nullptr) return Status::FailedPrecondition("not built");
  const std::uint64_t reads_before = file_->reads();
  const float eps =
      params.spann_eps >= 0.0f ? params.spann_eps : opts_.default_query_eps;
  const int nprobe = params.nprobe > 0 ? params.nprobe : opts_.default_nprobe;

  // Centroid pruning: keep lists within (1+eps) of the nearest centroid.
  auto order = NearestCentroids(
      centroids_, query,
      std::min<std::size_t>(static_cast<std::size_t>(nprobe),
                            centroids_.rows()));
  if (stats != nullptr) stats->distance_comps += centroids_.rows();
  float dmin = simd::L2Sq(query, centroids_.row(order[0]), dim_);
  const float prune = (1.0f + eps) * (1.0f + eps);

  const std::size_t epp = EntriesPerPage();
  const std::size_t entry_size = EntrySize();
  // Posting pages are consecutive on disk, so each batched read below
  // coalesces into a single positioned read (chunked to bound memory).
  constexpr std::size_t kChunkPages = 64;
  std::vector<std::uint64_t> page_ids;
  std::vector<std::uint8_t> chunk(kChunkPages * opts_.file.page_size);
  Bitset seen(rows_.rows());
  TopK top(params.k);
  for (std::uint32_t c : order) {
    if (c != order[0] &&
        simd::L2Sq(query, centroids_.row(c), dim_) > dmin * prune) {
      break;  // order is ascending: everything further is pruned too
    }
    if (stats != nullptr) ++stats->nodes_visited;
    const Posting& posting = postings_[c];
    std::size_t pages = (posting.num_entries + epp - 1) / epp;
    for (std::size_t p0 = 0; p0 < pages; p0 += kChunkPages) {
      std::size_t chunk_pages = std::min(kChunkPages, pages - p0);
      page_ids.resize(chunk_pages);
      for (std::size_t i = 0; i < chunk_pages; ++i) {
        page_ids[i] = posting.first_page + p0 + i;
      }
      VDB_RETURN_IF_ERROR(file_->ReadPages(page_ids, chunk.data()));
      for (std::size_t i = 0; i < chunk_pages; ++i) {
        const std::uint8_t* page = chunk.data() + i * opts_.file.page_size;
        std::size_t p = p0 + i;
        std::size_t count = std::min(epp, posting.num_entries - p * epp);
        for (std::size_t e = 0; e < count; ++e) {
          const std::uint8_t* at = page + e * entry_size;
          std::uint32_t idx;
          std::memcpy(&idx, at, sizeof(idx));
          if (seen.Test(idx)) continue;  // closure duplicates
          seen.Set(idx);
          if (!rows_.Admissible(idx, params.filter, stats)) continue;
          const float* vec = reinterpret_cast<const float*>(at + sizeof(idx));
          float dist = scorer_.Distance(query, vec);
          if (stats != nullptr) ++stats->distance_comps;
          top.Push(rows_.label(idx), dist);
        }
      }
    }
  }
  *out = top.Take();
  if (stats != nullptr) stats->io_reads += file_->reads() - reads_before;
  return Status::Ok();
}

Status SpannIndex::ScanRows(const RowFn& fn, SearchStats* stats) const {
  if (file_ == nullptr) return Status::FailedPrecondition("not built");
  const std::uint64_t reads_before = file_->reads();
  const std::size_t epp = EntriesPerPage(), page_size = opts_.file.page_size;
  // Build appends rows to every list in ascending order, so merging the
  // lists' heads (a min-heap on (row, list)) yields the rows in order and
  // a row's replicas one after another. Each list holds one page.
  std::vector<std::uint8_t> pages(postings_.size() * page_size);
  std::vector<std::uint32_t> next(postings_.size(), 0);
  auto entry = [&](std::size_t c) {
    return pages.data() + c * page_size + next[c] % epp * EntrySize();
  };
  std::vector<std::pair<std::uint32_t, std::size_t>> heap;
  auto push_head = [&](std::size_t c) -> Status {
    if (next[c] == postings_[c].num_entries) return Status::Ok();
    if (next[c] % epp == 0) {
      const std::uint64_t page = postings_[c].first_page + next[c] / epp;
      VDB_RETURN_IF_ERROR(file_->ReadPage(page, pages.data() + c * page_size));
    }
    std::uint32_t row;
    std::memcpy(&row, entry(c), sizeof(row));
    if (row >= rows_.rows()) return Status::Corruption("bad posting entry");
    heap.push_back({row, c});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    return Status::Ok();
  };
  for (std::size_t c = 0; c < postings_.size(); ++c) {
    VDB_RETURN_IF_ERROR(push_head(c));
  }
  std::uint32_t last = RowIds::kNoRow;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [row, c] = heap.back();
    heap.pop_back();
    if (row != last && !rows_.IsDeleted(row)) {
      fn(rows_.label(row),
         reinterpret_cast<const float*>(entry(c) + sizeof(row)));
    }
    last = row;
    ++next[c];
    VDB_RETURN_IF_ERROR(push_head(c));
  }
  if (stats != nullptr) stats->io_reads += file_->reads() - reads_before;
  return Status::Ok();
}

double SpannIndex::ReplicationFactor() const {
  return rows_.rows() == 0 ? 0.0
                           : static_cast<double>(total_assignments_) /
                                 static_cast<double>(rows_.rows());
}

std::size_t SpannIndex::MemoryBytes() const {
  return centroids_.ByteSize() + postings_.size() * sizeof(Posting) +
         rows_.LabelBytes();
}

std::size_t SpannIndex::DiskBytes() const {
  return file_ ? file_->num_pages() * opts_.file.page_size : 0;
}

}  // namespace vdb
