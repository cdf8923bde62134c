#ifndef VDB_STORAGE_PAGED_FILE_H_
#define VDB_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
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

  /// Batched read: fills `out` (page_ids.size() * page_size bytes, slot i
  /// receiving page_ids[i]; duplicates allowed) under ONE lock
  /// acquisition. Cache hits are served first; the misses are sorted,
  /// deduplicated, and coalesced into runs of consecutive pages, each run
  /// costing a single positioned read — a beam of B candidates costs
  /// O(runs) syscalls instead of B. All ids are bounds-checked before any
  /// I/O; on error `out` contents are unspecified. Read-path failpoints
  /// and the fault_after_ countdown apply per physical read exactly as in
  /// ReadPage.
  Status ReadPages(std::span<const std::uint64_t> page_ids,
                   std::uint8_t* out);

  /// Writes page `page_id` from `buf` (page_size bytes); extends the file
  /// as needed.
  Status WritePage(std::uint64_t page_id, const std::uint8_t* buf);

  /// Appends a fresh page, returning its id.
  Result<std::uint64_t> AppendPage(const std::uint8_t* buf);

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
  /// ReadPages invocations / coalesced-run syscalls they issued.
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
  PagedFile(int fd, const PagedFileOptions& opts, std::uint64_t num_pages)
      : fd_(fd), opts_(opts), num_pages_(num_pages) {}

  static Result<std::unique_ptr<PagedFile>> OpenImpl(
      const std::string& path, const PagedFileOptions& opts, bool truncate);

  /// Callers hold mu_ (compiler-checked).
  bool CacheLookup(std::uint64_t page_id, std::uint8_t* buf)
      VDB_REQUIRES(mu_);
  void CacheInsert(std::uint64_t page_id, const std::uint8_t* buf)
      VDB_REQUIRES(mu_);
  Status WritePageLocked(std::uint64_t page_id, const std::uint8_t* buf)
      VDB_REQUIRES(mu_);
  /// The single physical-read path (ReadPage and every coalesced
  /// ReadPages run go through here): fault injection, read failpoints,
  /// one positioned read of `npages` consecutive pages, read accounting,
  /// per-page corruption injection, and cache fill.
  Status ReadRunLocked(std::uint64_t first_page, std::size_t npages,
                       std::uint8_t* buf) VDB_REQUIRES(mu_);

  const int fd_;  ///< const after construction; positioned I/O only
  const PagedFileOptions opts_;

  /// Guards every member below (LRU cache, counters, page count): the
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

  /// LRU cache: most-recent at front.
  std::list<std::uint64_t> lru_ VDB_GUARDED_BY(mu_);
  struct CacheEntry {
    std::list<std::uint64_t>::iterator lru_it;
    std::vector<std::uint8_t> data;
  };
  std::unordered_map<std::uint64_t, CacheEntry> cache_ VDB_GUARDED_BY(mu_);
};

}  // namespace vdb

#endif  // VDB_STORAGE_PAGED_FILE_H_
