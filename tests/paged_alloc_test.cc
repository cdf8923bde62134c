// Counts heap allocations around PagedFile::ReadBlocks: once its read
// scratch has grown to the largest batch, a read allocates nothing, for
// cache hits, misses, duplicates and multi-page runs alike. The count
// comes from replacing the global operator new, so this test is a binary
// of its own.

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/paged_file.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Not inlined: GCC would otherwise see malloc() paired with operator
// delete (or operator new with free()) and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vdb {
namespace {

TEST(PagedFileAllocTest, SteadyStateReadBlocksAllocatesNothing) {
  for (std::size_t cache_pages : {0, 4}) {
    PagedFileOptions opts;
    opts.cache_pages = cache_pages;
    std::string path = ::testing::TempDir() + "/vdb_alloc_" +
                       std::to_string(cache_pages) + "_" +
                       std::to_string(::getpid());
    auto file = PagedFile::Create(path, opts);
    ASSERT_TRUE(file.ok());
    const std::uint64_t ps = (*file)->page_size();
    std::vector<std::uint8_t> page(ps, 7);
    for (std::uint64_t p = 0; p < 16; ++p) {
      ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
    }
    const std::size_t len = 196;
    // Grows the scratch to the largest batch below: eight blocks on eight
    // uncached consecutive pages, one eight-page run.
    std::vector<std::uint64_t> warm;
    for (std::uint64_t p = 0; p < 8; ++p) warm.push_back(p * ps + 20);
    std::vector<std::uint8_t> out(warm.size() * len);
    ASSERT_TRUE((*file)->ReadBlocks(warm, len, out.data()).ok());

    // Beam-shaped batches: hits, one-page misses, a duplicated page, and
    // a three-page run.
    const std::vector<std::vector<std::uint64_t>> batches = {
        {9 * ps, 12 * ps + 400, 3 * ps + 8, 9 * ps + 3000},
        {5 * ps, 6 * ps + 100, 7 * ps + 200, 14 * ps},
        {1 * ps + 196, 11 * ps, 15 * ps + 3900, 1 * ps + 392},
    };
    // One pass also runs each path's one-time set-up (metric lookups).
    for (const auto& batch : batches) {
      ASSERT_TRUE((*file)->ReadBlocks(batch, len, out.data()).ok());
    }
    const std::size_t before = g_allocations.load();
    bool ok = true;
    for (int rep = 0; rep < 50; ++rep) {
      for (const auto& batch : batches) {
        ok = (*file)->ReadBlocks(batch, len, out.data()).ok() && ok;
      }
    }
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocations, 0u) << "cache_pages=" << cache_pages;
    EXPECT_GT((*file)->reads(), 0u);
    if (cache_pages > 0) {
      EXPECT_GT((*file)->cache_hits(), 0u);
    }
    file->reset();
    ::unlink(path.c_str());
  }
}

}  // namespace
}  // namespace vdb
