#ifndef VDB_INDEX_DISKANN_H_
#define VDB_INDEX_DISKANN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/row_ids.h"
#include "index/index.h"
#include "index/vamana.h"
#include "quant/pq.h"
#include "storage/paged_file.h"

namespace vdb {

struct DiskAnnOptions {
  VamanaOptions vamana;  ///< in-memory graph construction parameters
  PqOptions pq;          ///< in-memory navigation codes
  std::size_t default_beam_width = 4;
  std::size_t default_ef = 64;  ///< candidate list size L
  PagedFileOptions file;
};

/// DiskANN (Subramanya et al.; paper §2.2(2)): the disk-resident Vamana.
/// Each node's full vector and adjacency list are co-located in one disk
/// block; a query holds compressed PQ codes of *all* vectors in memory to
/// steer beam search, paying page reads only for the nodes it actually
/// expands (whose exact distances then re-rank the results). The
/// reads-per-query / recall trade-off is experiment E11.
///
/// Build places the nodes so that graph neighbours share pages
/// (`PageLocalOrder` in diskann.cc), and the index works in slot space: `codes_`, `rows_`,
/// the on-disk neighbour lists and `medoid_` are indexed by a node's slot
/// in the file, so the beam's blocks often share a cached page. Only the
/// node blocks remember build order (no permutation is held in memory);
/// the row surface emits rows in build order from them.
class DiskAnnIndex final : public VectorIndex {
 public:
  DiskAnnIndex(std::string path, const DiskAnnOptions& opts = {})
      : path_(std::move(path)), opts_(opts) {}

  std::string Name() const override { return "diskann"; }
  bool IsGraph() const override { return true; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Remove(VectorId id) override { return rows_.Remove(id); }
  const RowIds& row_ids() const override { return rows_; }
  /// Reads every node page once, in file order, into a transient buffer,
  /// and emits the live rows in build order; full vectors stay on disk.
  Status ScanRows(const RowFn& fn, SearchStats* stats) const override;
  /// Reads the vector part of each live id's node block, one block read
  /// per id.
  Status ReadRows(std::span<const VectorId> ids, const RowFn& fn,
                  SearchStats* stats) const override;
  /// In-memory footprint only (codes, labels, codebooks) — the number the
  /// paper contrasts with in-memory indexes.
  std::size_t MemoryBytes() const override;

  /// Bytes of the on-disk structure.
  std::size_t DiskBytes() const;

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  // Node block: [uint32 degree][R x uint32 neighbor slots][dim x float
  // vector][uint32 build row], `nodes_per_page_` blocks a page.

  /// Byte offset of the block in `slot` in the file.
  std::uint64_t NodeOffset(std::uint32_t slot) const {
    return slot / nodes_per_page_ * opts_.file.page_size +
           slot % nodes_per_page_ * node_stride_;
  }
  /// Offset of the vector inside a node block.
  std::size_t VectorAt() const {
    return sizeof(std::uint32_t) * (1 + opts_.vamana.r);
  }
  /// Offset of the build row inside a node block.
  std::size_t RowAt() const { return VectorAt() + sizeof(float) * dim_; }

  std::string path_;
  DiskAnnOptions opts_;
  std::size_t dim_ = 0;
  std::size_t node_stride_ = 0;
  std::size_t nodes_per_page_ = 0;
  std::uint32_t medoid_ = 0;  ///< slot of the entry node
  Scorer scorer_;
  ProductQuantizer pq_;
  std::vector<std::uint8_t> codes_;   ///< in-memory PQ codes, by slot
  RowIds rows_;                       ///< labels and tombstones, by slot
  mutable std::unique_ptr<PagedFile> file_;
};

}  // namespace vdb

#endif  // VDB_INDEX_DISKANN_H_
