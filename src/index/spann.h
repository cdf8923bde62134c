#ifndef VDB_INDEX_SPANN_H_
#define VDB_INDEX_SPANN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/row_ids.h"
#include "index/index.h"
#include "storage/paged_file.h"

namespace vdb {

struct SpannOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t nlist = 64;        ///< posting lists (centroids stay in memory)
  int kmeans_iters = 15;
  /// Closure assignment: a vector is replicated into every posting list
  /// whose centroid is within (1 + closure_eps) of its nearest centroid.
  float closure_eps = 0.15f;
  std::size_t max_replicas = 4;
  /// Query-time pruning: scan lists with centroid distance within
  /// (1 + query_eps) of the nearest centroid, capped by nprobe.
  float default_query_eps = 0.30f;
  int default_nprobe = 8;
  std::uint64_t seed = 42;
  PagedFileOptions file;
};

/// SPANN (Chen et al.; paper §2.2(2) learning-to-hash, disk-resident):
/// k-means posting lists on disk with *overlapping* (closure) assignment so
/// boundary vectors appear in several lists, cutting the I/O needed for a
/// given recall; queries prune lists by centroid-distance ratio. Centroids
/// are the only full-precision vectors kept in memory.
class SpannIndex final : public VectorIndex {
 public:
  SpannIndex(std::string path, const SpannOptions& opts = {})
      : path_(std::move(path)), opts_(opts) {}

  std::string Name() const override { return "spann"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Remove(VectorId id) override { return rows_.Remove(id); }
  const RowIds& row_ids() const override { return rows_; }
  /// Merges the posting lists (each in ascending row order) page by page,
  /// holding one page per list; a replicated row is read once.
  Status ScanRows(const RowFn& fn, SearchStats* stats) const override;
  std::size_t MemoryBytes() const override;
  std::size_t DiskBytes() const;

  /// Mean number of posting lists each vector occupies (>= 1; the closure
  /// replication factor).
  double ReplicationFactor() const;

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  struct Posting {
    std::uint64_t first_page = 0;
    std::uint32_t num_entries = 0;
  };
  std::size_t EntriesPerPage() const;
  std::size_t EntrySize() const {
    return sizeof(std::uint32_t) + dim_ * sizeof(float);
  }

  std::string path_;
  SpannOptions opts_;
  std::size_t dim_ = 0;
  std::size_t total_assignments_ = 0;
  Scorer scorer_;
  FloatMatrix centroids_;
  std::vector<Posting> postings_;
  RowIds rows_;
  mutable std::unique_ptr<PagedFile> file_;
};

}  // namespace vdb

#endif  // VDB_INDEX_SPANN_H_
