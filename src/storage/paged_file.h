#ifndef VDB_STORAGE_PAGED_FILE_H_
#define VDB_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace vdb {

struct PagedFileOptions {
  std::size_t page_size = 4096;
  /// LRU page-cache capacity in pages (0 disables caching). Cache hits do
  /// not count as I/O reads — exactly the accounting DiskANN/SPANN papers
  /// use when they report "disk accesses".
  std::size_t cache_pages = 0;
};

/// Page-granular file — the "disk" substrate for the disk-resident indexes
/// (paper §2.2: DiskANN, SPANN). All I/O is counted, making experiment
/// E11's page-reads-per-query metric hardware-independent. Supports read
/// fault injection for failure testing.
///
/// Thread-safe: the disk indexes hold a PagedFile `mutable` and read
/// pages during const Search, so concurrent readers (server workers
/// sharing one collection, scatter-gather workers) share the LRU cache
/// and counters. One mutex guards all of it (DESIGN.md §9); positioned
/// pread/pwrite needs no seek serialization of its own.
class PagedFile {
 public:
  /// Creates (truncating) a paged file at `path`.
  static Result<std::unique_ptr<PagedFile>> Create(
      const std::string& path, const PagedFileOptions& opts = {});
  /// Opens an existing paged file.
  static Result<std::unique_ptr<PagedFile>> Open(
      const std::string& path, const PagedFileOptions& opts = {});

  ~PagedFile();
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Reads page `page_id` into `buf` (page_size bytes).
  Status ReadPage(std::uint64_t page_id, std::uint8_t* buf);

  /// Batched read of sub-page blocks: fills `out` (offsets.size() * len
  /// bytes, slot i receiving the `len` bytes at byte offset offsets[i];
  /// duplicates allowed) under ONE lock acquisition. Every block must lie
  /// inside one page of the file; all are checked before any I/O
  /// (OutOfRange otherwise). Physical I/O stays page-granular: cache hits
  /// are served first, then the missing pages are sorted, deduplicated
  /// and coalesced into runs of consecutive pages, each run costing a
  /// single positioned read — a beam of B candidates costs O(runs)
  /// syscalls instead of B. Only the requested bytes are copied out. On
  /// error `out` contents are unspecified. Read-path failpoints and the
  /// fault_after_ countdown apply per physical read exactly as in
  /// ReadPage. Allocation-free once the read scratch has grown to the
  /// largest batch.
  Status ReadBlocks(std::span<const std::uint64_t> offsets, std::size_t len,
                    std::uint8_t* out);

  /// ReadBlocks of whole pages: slot i of `out` (page_size bytes each)
  /// receives page page_ids[i].
  Status ReadPages(std::span<const std::uint64_t> page_ids,
                   std::uint8_t* out);

  /// Writes page `page_id` from `buf` (page_size bytes); extends the file
  /// as needed.
  Status WritePage(std::uint64_t page_id, const std::uint8_t* buf);

  /// fsync(2) the file (EINTR-safe). Durability point for written pages.
  Status Sync();

  std::size_t page_size() const { return opts_.page_size; }
  std::uint64_t num_pages() const {
    MutexLock lock(mu_);
    return num_pages_;
  }

  /// Physical page reads (cache misses).
  std::uint64_t reads() const {
    MutexLock lock(mu_);
    return reads_;
  }
  std::uint64_t writes() const {
    MutexLock lock(mu_);
    return writes_;
  }
  std::uint64_t cache_hits() const {
    MutexLock lock(mu_);
    return cache_hits_;
  }
  /// ReadBlocks/ReadPages invocations / coalesced-run syscalls they
  /// issued.
  std::uint64_t batch_reads() const {
    MutexLock lock(mu_);
    return batch_reads_;
  }
  std::uint64_t batch_syscalls() const {
    MutexLock lock(mu_);
    return batch_syscalls_;
  }
  void ResetCounters() {
    MutexLock lock(mu_);
    reads_ = 0;
    writes_ = 0;
    cache_hits_ = 0;
    batch_reads_ = 0;
    batch_syscalls_ = 0;
  }

  /// Failure injection: the next physical read after `count` more reads
  /// fails with IoError. Negative disables.
  void InjectReadFaultAfter(std::int64_t count) {
    MutexLock lock(mu_);
    fault_after_ = count;
  }

 private:
  PagedFile(int fd, const PagedFileOptions& opts, std::uint64_t num_pages);

  static Result<std::unique_ptr<PagedFile>> OpenImpl(
      const std::string& path, const PagedFileOptions& opts, bool truncate);

  static constexpr std::uint32_t kNoFrame = 0xFFFFFFFFu;

  // Callers of the helpers below hold mu_ (compiler-checked).

  /// The frame caching `page_id`, moved to the LRU front and counted as a
  /// hit; kNoFrame on a miss.
  std::uint32_t CacheLookup(std::uint64_t page_id) VDB_REQUIRES(mu_);
  /// Caches `data` (page_size bytes) as page `page_id`, most recent. When
  /// `data` is the spare frame itself (a miss read straight into it) the
  /// frame is linked in without a copy.
  void CacheInsert(std::uint64_t page_id, const std::uint8_t* data)
      VDB_REQUIRES(mu_);
  void LruUnlink(std::uint32_t f) VDB_REQUIRES(mu_);
  void LruPushFront(std::uint32_t f) VDB_REQUIRES(mu_);
  std::uint8_t* FrameData(std::uint32_t f) VDB_REQUIRES(mu_) {
    return frames_.data() + std::size_t{f} * opts_.page_size;
  }
  Status WritePageLocked(std::uint64_t page_id, const std::uint8_t* buf)
      VDB_REQUIRES(mu_);
  /// The one coalescing loop behind ReadBlocks and ReadPages.
  Status ReadBlocksLocked(std::span<const std::uint64_t> offsets,
                          std::size_t len, std::uint8_t* out)
      VDB_REQUIRES(mu_);
  /// The single physical-read path (ReadPage and every coalesced run go
  /// through here): fault injection, read failpoints, one positioned read
  /// of `npages` consecutive pages, read accounting, per-page corruption
  /// injection, and cache fill. A one-page run is read into the spare
  /// frame, a longer one into `run_buf_`; `*data` points at the pages
  /// until the next read or write.
  Status ReadRunLocked(std::uint64_t first_page, std::size_t npages,
                       const std::uint8_t** data) VDB_REQUIRES(mu_);

  const int fd_;  ///< const after construction; positioned I/O only
  const PagedFileOptions opts_;

  /// Guards every member below (page cache, counters, page count): the
  /// read path mutates the cache, so "read-only" users still need it.
  /// §9.1 leaf: never held while acquiring another lock (failpoint
  /// evaluation inside ReadRunLocked takes Failpoints::mu only on its
  /// own — see failpoint.cc — after this file's state is consistent).
  mutable Mutex mu_;
  std::uint64_t num_pages_ VDB_GUARDED_BY(mu_) = 0;
  std::uint64_t reads_ VDB_GUARDED_BY(mu_) = 0;
  std::uint64_t writes_ VDB_GUARDED_BY(mu_) = 0;
  std::uint64_t cache_hits_ VDB_GUARDED_BY(mu_) = 0;
  std::uint64_t batch_reads_ VDB_GUARDED_BY(mu_) = 0;
  std::uint64_t batch_syscalls_ VDB_GUARDED_BY(mu_) = 0;
  std::int64_t fault_after_ VDB_GUARDED_BY(mu_) = -1;

  /// Page cache: a slab of cache_pages + 1 frames allocated at open. One
  /// frame is always spare: a miss is read into it and then linked in,
  /// evicting the LRU tail, whose frame becomes the next spare. A failed
  /// or corrupt read leaves the cache exactly as it was.
  std::vector<std::uint8_t> frames_ VDB_GUARDED_BY(mu_);
  struct FrameLinks {
    std::uint64_t page = 0;
    std::uint32_t prev = kNoFrame;  ///< toward the most recent
    std::uint32_t next = kNoFrame;  ///< toward the least recent
  };
  std::vector<FrameLinks> links_ VDB_GUARDED_BY(mu_);
  std::uint32_t lru_head_ VDB_GUARDED_BY(mu_) = kNoFrame;  ///< most recent
  std::uint32_t lru_tail_ VDB_GUARDED_BY(mu_) = kNoFrame;
  std::uint32_t spare_ VDB_GUARDED_BY(mu_) = 0;
  std::size_t cached_ VDB_GUARDED_BY(mu_) = 0;  ///< frames holding a page

  /// Page id -> frame: open addressing over twice the frames (linear
  /// probing, backward-shift erase), so it never allocates after open.
  class PageTable {
   public:
    explicit PageTable(std::size_t frames);
    std::uint32_t Find(std::uint64_t page) const;  ///< kNoFrame if absent
    void Insert(std::uint64_t page, std::uint32_t frame);  ///< page absent
    void Erase(std::uint64_t page);                        ///< page present

   private:
    struct Slot {
      std::uint64_t page = 0;
      std::uint32_t frame = kNoFrame;
    };
    std::size_t Home(std::uint64_t page) const;
    std::vector<Slot> slots_;
    int shift_ = 64;
  };
  PageTable page_table_ VDB_GUARDED_BY(mu_);

  /// Read scratch, reused across calls: multi-page runs, the (page, slot)
  /// list of a batch's misses, and ReadPages' offsets.
  std::vector<std::uint8_t> run_buf_ VDB_GUARDED_BY(mu_);
  std::vector<std::pair<std::uint64_t, std::size_t>> misses_
      VDB_GUARDED_BY(mu_);
  std::vector<std::uint64_t> page_offsets_ VDB_GUARDED_BY(mu_);
};

}  // namespace vdb

#endif  // VDB_STORAGE_PAGED_FILE_H_
