#include "storage/paged_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/failpoint.h"
#include "core/telemetry.h"
#include "storage/posix_io.h"

namespace vdb {

PagedFile::PageTable::PageTable(std::size_t frames) {
  if (frames == 0) return;
  std::size_t size = 2;
  int bits = 1;
  while (size < 2 * frames) {
    size *= 2;
    ++bits;
  }
  slots_.resize(size);
  shift_ = 64 - bits;
}

std::size_t PagedFile::PageTable::Home(std::uint64_t page) const {
  return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::uint32_t PagedFile::PageTable::Find(std::uint64_t page) const {
  if (slots_.empty()) return kNoFrame;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Home(page);; i = (i + 1) & mask) {
    if (slots_[i].frame == kNoFrame) return kNoFrame;
    if (slots_[i].page == page) return slots_[i].frame;
  }
}

void PagedFile::PageTable::Insert(std::uint64_t page, std::uint32_t frame) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Home(page);
  while (slots_[i].frame != kNoFrame) i = (i + 1) & mask;
  slots_[i] = {page, frame};
}

void PagedFile::PageTable::Erase(std::uint64_t page) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = Home(page);
  while (slots_[hole].page != page || slots_[hole].frame == kNoFrame) {
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull up each later entry of the probe chain whose home
  // does not lie cyclically in (hole, j], so every lookup still reaches it.
  for (std::size_t j = (hole + 1) & mask; slots_[j].frame != kNoFrame;
       j = (j + 1) & mask) {
    std::size_t home = Home(slots_[j].page);
    bool stays = hole < j ? (home > hole && home <= j)
                          : (home > hole || home <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole].frame = kNoFrame;
}

PagedFile::PagedFile(int fd, const PagedFileOptions& opts,
                     std::uint64_t num_pages)
    : fd_(fd),
      opts_(opts),
      num_pages_(num_pages),
      frames_((opts.cache_pages + 1) * opts.page_size),
      links_(opts.cache_pages + 1),
      page_table_(opts.cache_pages) {}

Result<std::unique_ptr<PagedFile>> PagedFile::OpenImpl(
    const std::string& path, const PagedFileOptions& opts, bool truncate) {
  if (opts.page_size == 0 || opts.page_size % 512 != 0) {
    return Status::InvalidArgument("page_size must be a positive multiple of 512");
  }
  if (opts.cache_pages >= kNoFrame) {
    return Status::InvalidArgument("cache_pages too large");
  }
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek: " + std::string(std::strerror(errno)));
  }
  return Result<std::unique_ptr<PagedFile>>(
      std::unique_ptr<PagedFile>(new PagedFile(
          fd, opts, static_cast<std::uint64_t>(size) / opts.page_size)));
}

Result<std::unique_ptr<PagedFile>> PagedFile::Create(
    const std::string& path, const PagedFileOptions& opts) {
  return OpenImpl(path, opts, /*truncate=*/true);
}

Result<std::unique_ptr<PagedFile>> PagedFile::Open(
    const std::string& path, const PagedFileOptions& opts) {
  return OpenImpl(path, opts, /*truncate=*/false);
}

PagedFile::~PagedFile() {
  if (fd_ >= 0) ::close(fd_);
}

void PagedFile::LruUnlink(std::uint32_t f) {
  FrameLinks& l = links_[f];
  (l.prev != kNoFrame ? links_[l.prev].next : lru_head_) = l.next;
  (l.next != kNoFrame ? links_[l.next].prev : lru_tail_) = l.prev;
  l.prev = l.next = kNoFrame;
}

void PagedFile::LruPushFront(std::uint32_t f) {
  links_[f].next = lru_head_;
  (lru_head_ != kNoFrame ? links_[lru_head_].prev : lru_tail_) = f;
  lru_head_ = f;
}

std::uint32_t PagedFile::CacheLookup(std::uint64_t page_id) {
  std::uint32_t f = page_table_.Find(page_id);
  if (f == kNoFrame) return kNoFrame;
  LruUnlink(f);
  LruPushFront(f);
  ++cache_hits_;
  return f;
}

void PagedFile::CacheInsert(std::uint64_t page_id, const std::uint8_t* data) {
  if (opts_.cache_pages == 0) return;
  std::uint32_t f = page_table_.Find(page_id);
  if (f != kNoFrame) {  // a write over a cached page
    std::memcpy(FrameData(f), data, opts_.page_size);
    LruUnlink(f);
    LruPushFront(f);
    return;
  }
  f = spare_;
  if (data != FrameData(f)) std::memcpy(FrameData(f), data, opts_.page_size);
  if (cached_ < opts_.cache_pages) {
    // Filling up: frames [0, cached_] have been handed out in order.
    spare_ = static_cast<std::uint32_t>(++cached_);
  } else {
    spare_ = lru_tail_;
    page_table_.Erase(links_[spare_].page);
    LruUnlink(spare_);
  }
  links_[f].page = page_id;
  page_table_.Insert(page_id, f);
  LruPushFront(f);
}

Status PagedFile::ReadRunLocked(std::uint64_t first_page, std::size_t npages,
                                const std::uint8_t** data) {
  static Counter& read_failures =
      Registry::Global().GetCounter("vdb_paged_file_read_failures_total");
  if (fault_after_ >= 0) {
    if (fault_after_ < static_cast<std::int64_t>(npages)) {
      // Sticky, like the single-page path: once tripped, every later
      // physical read fails until re-armed.
      fault_after_ = 0;
      read_failures.Inc();
      return Status::IoError("injected read fault");
    }
    fault_after_ -= static_cast<std::int64_t>(npages);
  }
  if (FailpointFires("paged_file.read.fail")) {
    read_failures.Inc();
    return Status::IoError("injected failure: paged_file.read.fail");
  }
  std::uint8_t* buf = FrameData(spare_);
  if (npages > 1) {
    run_buf_.resize(npages * opts_.page_size);
    buf = run_buf_.data();
  }
  Status read_status = posix_io::PreadFully(
      fd_, buf, npages * opts_.page_size,
      static_cast<off_t>(first_page * opts_.page_size), "pread");
  if (!read_status.ok()) {
    read_failures.Inc();
    return Status::IoError("pages " + std::to_string(first_page) + "+" +
                           std::to_string(npages) + ": " +
                           read_status.message());
  }
  reads_ += npages;
  for (std::size_t i = 0; i < npages; ++i) {
    std::uint8_t* page = buf + i * opts_.page_size;
    if (FailpointFires("paged_file.read.corrupt")) {
      // Media corruption: one bit flips on the way in. Intentionally not
      // cached — upper layers (CRC-framed formats) must detect this read.
      page[0] ^= 0x01;
      continue;
    }
    CacheInsert(first_page + i, page);
  }
  *data = buf;
  return Status::Ok();
}

Status PagedFile::ReadPage(std::uint64_t page_id, std::uint8_t* buf) {
  MutexLock lock(mu_);
  if (page_id >= num_pages_) {
    return Status::OutOfRange("page beyond end of file");
  }
  const std::uint8_t* data = nullptr;
  std::uint32_t f = CacheLookup(page_id);
  if (f != kNoFrame) {
    data = FrameData(f);
  } else {
    VDB_RETURN_IF_ERROR(ReadRunLocked(page_id, 1, &data));
  }
  std::memcpy(buf, data, opts_.page_size);
  return Status::Ok();
}

Status PagedFile::ReadBlocks(std::span<const std::uint64_t> offsets,
                             std::size_t len, std::uint8_t* out) {
  if (offsets.empty()) return Status::Ok();
  MutexLock lock(mu_);
  return ReadBlocksLocked(offsets, len, out);
}

Status PagedFile::ReadPages(std::span<const std::uint64_t> page_ids,
                            std::uint8_t* out) {
  if (page_ids.empty()) return Status::Ok();
  MutexLock lock(mu_);
  page_offsets_.clear();
  for (std::uint64_t id : page_ids) {
    if (id >= num_pages_) {
      return Status::OutOfRange("page beyond end of file");
    }
    page_offsets_.push_back(id * opts_.page_size);
  }
  return ReadBlocksLocked(page_offsets_, opts_.page_size, out);
}

Status PagedFile::ReadBlocksLocked(std::span<const std::uint64_t> offsets,
                                   std::size_t len, std::uint8_t* out) {
  const std::size_t ps = opts_.page_size;
  if (len == 0 || len > ps) {
    return Status::InvalidArgument("block length must be in [1, page_size]");
  }
  for (std::uint64_t off : offsets) {
    if (off / ps >= num_pages_) {
      return Status::OutOfRange("page beyond end of file");
    }
    if (off % ps + len > ps) {
      return Status::OutOfRange("block crosses a page end");
    }
  }
  ++batch_reads_;

  // Pass 1: serve cache hits; list the missing slots by page. A repeat of
  // a missing page misses again (nothing is cached before pass 2), so the
  // sort below groups its slots.
  misses_.clear();
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t page = offsets[i] / ps;
    std::uint32_t f = CacheLookup(page);
    if (f == kNoFrame) {
      misses_.emplace_back(page, i);
      continue;
    }
    std::memcpy(out + i * len, FrameData(f) + offsets[i] % ps, len);
  }
  if (misses_.empty()) return Status::Ok();
  std::sort(misses_.begin(), misses_.end());

  // Pass 2: coalesce the sorted misses into runs of consecutive pages, one
  // positioned read per run, and copy each slot's block out of its page.
  for (std::size_t r = 0; r < misses_.size();) {
    const std::uint64_t first = misses_[r].first;
    std::uint64_t last = first;
    std::size_t end = r + 1;
    while (end < misses_.size() && misses_[end].first <= last + 1) {
      last = misses_[end].first;
      ++end;
    }
    ++batch_syscalls_;
    const std::uint8_t* run = nullptr;
    VDB_RETURN_IF_ERROR(ReadRunLocked(first, last - first + 1, &run));
    for (; r < end; ++r) {
      const std::size_t slot = misses_[r].second;
      std::memcpy(out + slot * len,
                  run + (misses_[r].first - first) * ps + offsets[slot] % ps,
                  len);
    }
  }
  return Status::Ok();
}

Status PagedFile::WritePage(std::uint64_t page_id, const std::uint8_t* buf) {
  MutexLock lock(mu_);
  return WritePageLocked(page_id, buf);
}

Status PagedFile::WritePageLocked(std::uint64_t page_id,
                                  const std::uint8_t* buf) {
  if (FailpointFires("paged_file.write.fail")) {
    return Status::IoError("injected failure: paged_file.write.fail");
  }
  VDB_RETURN_IF_ERROR(posix_io::PwriteFully(
      fd_, buf, opts_.page_size,
      static_cast<off_t>(page_id * opts_.page_size),
      ("pwrite page " + std::to_string(page_id)).c_str()));
  ++writes_;
  if (page_id >= num_pages_) num_pages_ = page_id + 1;
  CacheInsert(page_id, buf);
  return Status::Ok();
}

Status PagedFile::Sync() {
  if (FailpointFires("paged_file.sync.fail")) {
    return Status::IoError("injected failure: paged_file.sync.fail");
  }
  return posix_io::SyncFd(fd_, "paged file fsync");
}

}  // namespace vdb
