// Crash-recovery subsystem tests (DESIGN.md §8).
//
// The centerpiece is a fork-and-kill torture harness: a child process runs
// a seeded insert/delete/checkpoint workload against a RecoveryManager
// directory and dies mid-I/O — `_exit(2)` at failpoint-chosen crash sites
// compiled into the WAL/serializer/manifest/checkpoint paths, or a raw
// SIGKILL from the parent. The child logs every operation to an intent/ack
// oracle (O_APPEND writes survive any kill). The parent then recovers the
// directory and asserts the crash-consistency invariant:
//
//   recovered state == state after an exact prefix of the intent log,
//   where the prefix covers every acknowledged op (only the single
//   in-flight op at the moment of death may go either way), and in
//   particular every op acknowledged before the last WAL sync.
//
// Also here: Checkpoint/Restore edge cases, torn-tail truncation,
// atomic-WriteTo semantics, newest-generation fallback, and the scrubber.

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/telemetry.h"
#include "db/collection.h"
#include "db/recovery.h"
#include "db/scrubber.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "storage/manifest.h"
#include "storage/serializer.h"
#include "storage/wal.h"

#include "format1_dir_fixture.h"

namespace vdb {
namespace {

constexpr std::size_t kDim = 4;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_crash_" + tag + "_" +
         std::to_string(::getpid());
}

/// Injective per-id vector (v[0] = id) so identity is checkable by search.
std::vector<float> VecOf(VectorId id) {
  std::vector<float> v(kDim);
  v[0] = static_cast<float>(id);
  for (std::size_t j = 1; j < kDim; ++j) {
    v[j] = static_cast<float>((id * 2654435761ull + j * 40503ull) % 9973) /
           97.0f;
  }
  return v;
}

IndexFactory HnswFactory() {
  return [] {
    HnswOptions h;
    h.m = 6;
    return std::make_unique<HnswIndex>(h);
  };
}

/// Five layouts, by seed % 5, so that every crash site meets each of them
/// (5 and the site count are coprime): 0 HNSW in place; 1 no index; 2 HNSW
/// under a flush policy (several segments); 3 HNSW in place, one segment
/// per `part` key; 4 Flat (no structure codec: recovery rebuilds its
/// segments) under a flush policy with `part` keys.
CollectionOptions WorkloadOptions(std::uint64_t seed) {
  CollectionOptions opts;
  opts.dim = kDim;
  opts.attributes = {{"seq", AttrType::kInt64}, {"part", AttrType::kInt64}};
  switch (seed % 5) {
    case 0:
      opts.index_factory = HnswFactory();
      break;
    case 2:
      opts.index_factory = HnswFactory();
      opts.lsm_memtable_limit = 16;
      opts.lsm_compact_at_segments = 3;
      break;
    case 3:
      opts.index_factory = HnswFactory();
      opts.partition_column = "part";
      break;
    case 4:
      opts.index_factory = [] { return std::make_unique<FlatIndex>(); };
      opts.lsm_memtable_limit = 16;
      opts.lsm_compact_at_segments = 3;
      opts.partition_column = "part";
      break;
  }
  return opts;
}

std::vector<AttrBinding> AttrsOf(VectorId id) {
  return {{"seq", static_cast<std::int64_t>(id)},
          {"part", static_cast<std::int64_t>(id % 3)}};
}

// ------------------------------------------------------------- the oracle

enum OracleType : std::uint8_t {
  kIntentInsert = 1,  ///< about to Insert(id)
  kIntentDelete = 2,  ///< about to Delete(id)
  kAck = 3,           ///< previous intent returned OK
  kSyncBarrier = 4,   ///< SyncWal()/Checkpoint() returned OK
};

void OracleWrite(int fd, OracleType type, std::uint64_t id) {
  std::uint8_t rec[9];
  rec[0] = type;
  std::memcpy(rec + 1, &id, 8);
  // One small O_APPEND write: atomic, completes even if the process is
  // SIGKILLed right after the syscall returns.
  ASSERT_EQ(::write(fd, rec, sizeof rec), static_cast<ssize_t>(sizeof rec));
}

struct OracleLog {
  struct Intent {
    bool is_insert = false;
    std::uint64_t id = 0;
    bool acked = false;
  };
  std::vector<Intent> intents;
  std::size_t acked = 0;         ///< count of acked intents (a prefix)
  std::size_t synced_acked = 0;  ///< acked count at the last sync barrier
};

OracleLog ReadOracle(const std::string& path) {
  OracleLog log;
  std::ifstream in(path, std::ios::binary);
  std::uint8_t rec[9];
  while (in.read(reinterpret_cast<char*>(rec), sizeof rec)) {
    std::uint64_t id;
    std::memcpy(&id, rec + 1, 8);
    switch (rec[0]) {
      case kIntentInsert:
      case kIntentDelete:
        log.intents.push_back({rec[0] == kIntentInsert, id, false});
        break;
      case kAck:
        log.intents.back().acked = true;
        log.acked = log.intents.size();
        break;
      case kSyncBarrier:
        log.synced_acked = log.acked;
        break;
    }
  }
  return log;
}

/// Live-id set after applying the first `prefix` intents.
std::set<std::uint64_t> StateAfter(const OracleLog& log, std::size_t prefix) {
  std::set<std::uint64_t> live;
  for (std::size_t i = 0; i < prefix; ++i) {
    const auto& op = log.intents[i];
    if (op.is_insert) {
      live.insert(op.id);
    } else {
      live.erase(op.id);
    }
  }
  return live;
}

// ------------------------------------------------------- the child process

/// Crash sites compiled into the durability paths; one is armed per seed.
const char* kCrashSites[] = {
    "crash.wal.append.torn",        "crash.wal.append.full",
    "crash.wal.synced",             "crash.serializer.tmp_written",
    "crash.serializer.renamed",     "crash.manifest.bak",
    "crash.manifest.flipped",       "crash.recovery.checkpoint_written",
    "crash.recovery.before_gc",
};
constexpr std::size_t kNumSites = std::size(kCrashSites);

/// Seeded workload against `dir`. Never returns: dies at the armed crash
/// site, or `_exit(0)` after `max_ops`, or `_exit(7)` on an unexpected
/// error (which the parent fails on).
[[noreturn]] void RunChild(const std::string& dir, std::uint64_t seed,
                           bool endless) {
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(seed);
  auto mgr = RecoveryManager::Open(ro);
  if (!mgr.ok()) ::_exit(7);
  Collection& c = (*mgr)->collection();

  int oracle = ::open((dir + "/oracle.log").c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (oracle < 0) ::_exit(7);

  if (!endless) {
    // Arm exactly one crash site; the fire count varies with the seed so
    // crashes land at different depths of the workload. WAL sites are
    // evaluated once per op, checkpoint-path sites once per rotation.
    const char* site = kCrashSites[seed % kNumSites];
    bool wal_site = std::string(site).rfind("crash.wal", 0) == 0;
    FailpointSpec spec;
    spec.times = 1;
    spec.skip = (seed / kNumSites) % (wal_site ? 40 : 4);
    Failpoints::Instance().Arm(site, spec);
  }

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;
  const std::size_t max_ops = endless ? ~std::size_t{0} : 120 + seed % 150;
  const bool indexed = static_cast<bool>(ro.collection.index_factory);
  for (std::size_t i = 0; i < max_ops; ++i) {
    if (indexed && i == 40) {
      if (!c.BuildIndex().ok()) ::_exit(7);
    }
    if (!live.empty() && rng() % 10 < 2) {
      std::size_t at = rng() % live.size();
      std::uint64_t id = live[at];
      OracleWrite(oracle, kIntentDelete, id);
      if (!c.Delete(id).ok()) ::_exit(7);
      live[at] = live.back();
      live.pop_back();
      OracleWrite(oracle, kAck, id);
    } else {
      std::uint64_t id = next_id++;
      OracleWrite(oracle, kIntentInsert, id);
      if (!c.Insert(id, VecOf(id), AttrsOf(id)).ok()) {
        ::_exit(7);
      }
      live.push_back(id);
      OracleWrite(oracle, kAck, id);
    }
    if (rng() % 8 == 0) {
      if (!c.SyncWal().ok()) ::_exit(7);
      OracleWrite(oracle, kSyncBarrier, 0);
    }
    if (rng() % 25 == 0) {
      if (!(*mgr)->Checkpoint().ok()) ::_exit(7);
      OracleWrite(oracle, kSyncBarrier, 0);
    }
  }
  ::_exit(0);
}

// ---------------------------------------------------- parent verification

std::set<std::uint64_t> RecoveredLiveIds(const Collection& c) {
  std::vector<float> zero(kDim, 0.0f);
  std::vector<Neighbor> all;
  EXPECT_TRUE(
      c.RangeSearch(zero, std::numeric_limits<float>::max(), &all).ok());
  std::set<std::uint64_t> ids;
  for (const auto& n : all) ids.insert(n.id);
  return ids;
}

/// Recovers `dir` and checks the crash-consistency invariant against the
/// oracle.
void VerifyRecovery(const std::string& dir, std::uint64_t seed) {
  OracleLog log = ReadOracle(dir + "/oracle.log");
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(seed);
  RecoveryReport report;
  auto mgr = RecoveryManager::Open(ro, &report);
  ASSERT_TRUE(mgr.ok()) << "seed " << seed << ": " << mgr.status().ToString();
  Collection& c = (*mgr)->collection();

  std::set<std::uint64_t> recovered = RecoveredLiveIds(c);

  // The recovered state must be an exact prefix: either every acked op
  // (all fully-written appends survive a kill) or that plus the single
  // op that was in flight when the process died.
  std::size_t matched = ~std::size_t{0};
  for (std::size_t prefix : {log.acked, log.intents.size()}) {
    if (StateAfter(log, prefix) == recovered) {
      matched = prefix;
      break;
    }
  }
  ASSERT_NE(matched, ~std::size_t{0})
      << "seed " << seed << ": recovered " << recovered.size()
      << " live ids, expected the state after " << log.acked << " (acked) or "
      << log.intents.size() << " (intents) ops; generation "
      << report.generation << ", replayed " << report.wal_records_replayed;

  // Every write acknowledged before the last WAL sync must survive.
  EXPECT_GE(matched, log.synced_acked) << "seed " << seed;

  // Spot-check payload integrity: ids must carry their exact vector and
  // attribute through checkpoint + replay (RangeSearch is exact, and
  // VecOf neighbors are >= 1 apart in coordinate 0).
  std::size_t checked = 0;
  for (std::uint64_t id : recovered) {
    if (++checked > 10) break;
    std::vector<Neighbor> hit;
    ASSERT_TRUE(c.RangeSearch(VecOf(id), 1e-4f, &hit).ok());
    ASSERT_EQ(hit.size(), 1u) << "seed " << seed << " id " << id;
    EXPECT_EQ(hit[0].id, id) << "seed " << seed;
    auto seq = c.attributes().Get(id, "seq");
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(std::get<std::int64_t>(*seq), static_cast<std::int64_t>(id));
  }

  // The directory must remain writable after recovery: append three more
  // rows, reopen, and find them (the WAL-after-garbage regression).
  std::uint64_t base = 1u << 20;
  for (std::uint64_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(c.Insert(base + k, VecOf(base + k)).ok());
  }
  mgr->reset();  // release the WAL fd before reopening
  auto again = RecoveryManager::Open(ro);
  ASSERT_TRUE(again.ok());
  std::set<std::uint64_t> after = RecoveredLiveIds((*again)->collection());
  std::set<std::uint64_t> expected = recovered;
  for (std::uint64_t k = 0; k < 3; ++k) expected.insert(base + k);
  EXPECT_EQ(after, expected) << "seed " << seed;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

// ------------------------------------------------------------- the tests

TEST(CrashTortureTest, HundredSeededCrashPoints) {
  std::size_t seeds = 100;
  if (const char* env = std::getenv("VDB_CRASH_SEEDS")) {
    seeds = static_cast<std::size_t>(std::atoll(env));
  }
  std::size_t crashed = 0;
  std::size_t ran_to_completion = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    std::string dir = TempPath("torture_" + std::to_string(seed));
    RemoveTree(dir);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunChild(dir, seed, /*endless=*/false);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "seed " << seed;
    int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == 2)
        << "seed " << seed << " exited " << code
        << " (7 = unexpected error inside the child)";
    if (code == 2) {
      ++crashed;
    } else {
      ++ran_to_completion;
    }
    VerifyRecovery(dir, seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "invariant violated at seed " << seed;
    }
    RemoveTree(dir);
  }
  // The harness is only interesting if the children actually die mid-I/O.
  EXPECT_GT(crashed, seeds / 2)
      << "only " << crashed << "/" << seeds << " children crashed — crash "
      << "sites are not being reached";
  SUCCEED() << crashed << " crashed, " << ran_to_completion << " completed";
}

TEST(CrashTortureTest, RandomSigkillFromParent) {
  std::mt19937_64 rng(20260805);
  for (int round = 0; round < 8; ++round) {
    std::uint64_t seed = 1000 + round;
    std::string dir = TempPath("sigkill_" + std::to_string(round));
    RemoveTree(dir);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunChild(dir, seed, /*endless=*/true);
    ::usleep(3000 + rng() % 40000);
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);
    VerifyRecovery(dir, seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "invariant violated at sigkill round " << round;
    }
    RemoveTree(dir);
  }
}

// A corrupted newest generation must fall back to the previous one and
// still reach the present through the WAL chain (acceptance criterion).
TEST(RecoveryFallbackTest, CorruptNewestCheckpointFallsBack) {
  std::string dir = TempPath("fallback");
  RemoveTree(dir);
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(1);  // no index: checkpoint-only payload
  {
    auto mgr = RecoveryManager::Open(ro);
    ASSERT_TRUE(mgr.ok());
    Collection& c = (*mgr)->collection();
    for (std::uint64_t id = 1; id <= 20; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE((*mgr)->Checkpoint().ok());  // generation 1
    for (std::uint64_t id = 21; id <= 30; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE((*mgr)->Checkpoint().ok());  // generation 2
    for (std::uint64_t id = 31; id <= 35; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE(c.SyncWal().ok());
  }
  // Flip a payload byte in the newest checkpoint.
  std::string victim = dir + "/" + ManifestGeneration::CheckpointName(2);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char b;
    f.seekg(64);
    f.get(b);
    f.seekp(64);
    f.put(static_cast<char>(b ^ 0x5a));
  }
  RecoveryReport report;
  auto mgr = RecoveryManager::Open(ro, &report);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_EQ(report.generation, 1u);            // fell back
  EXPECT_EQ(report.generations_discarded, 1u);
  std::set<std::uint64_t> ids = RecoveredLiveIds((*mgr)->collection());
  EXPECT_EQ(ids.size(), 35u);  // WAL chain replay reached the present
  for (std::uint64_t id = 1; id <= 35; ++id) EXPECT_TRUE(ids.contains(id));
  RemoveTree(dir);
}

TEST(ScrubberTest, CleanDirThenCorruptionThenQuarantine) {
  std::string dir = TempPath("scrub");
  RemoveTree(dir);
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(0);  // HNSW factory: index snapshots too
  {
    auto mgr = RecoveryManager::Open(ro);
    ASSERT_TRUE(mgr.ok());
    Collection& c = (*mgr)->collection();
    for (std::uint64_t id = 1; id <= 50; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE(c.BuildIndex().ok());
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    for (std::uint64_t id = 51; id <= 60; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE(c.SyncWal().ok());
  }
  auto clean = ScrubDirectory(dir);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->clean()) << clean->ToString();
  EXPECT_TRUE(clean->manifest_readable);
  EXPECT_EQ(clean->corrupt_files, 0u);
  EXPECT_GT(clean->wal_records, 0u);

  // Corrupt the newest checkpoint; the scrubber must flag and, when
  // asked, quarantine it — after which recovery falls back cleanly.
  std::string victim = dir + "/" + ManifestGeneration::CheckpointName(1);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('\x7f');
  }
  auto dirty = ScrubDirectory(dir);
  ASSERT_TRUE(dirty.ok());
  EXPECT_FALSE(dirty->clean());
  EXPECT_EQ(dirty->corrupt_files, 1u) << dirty->ToString();

  ScrubOptions qopts;
  qopts.quarantine = true;
  auto quarantined = ScrubDirectory(dir, qopts);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_EQ(quarantined->quarantined_files, 1u);
  struct stat st;
  EXPECT_NE(::stat(victim.c_str(), &st), 0);  // moved away
  EXPECT_EQ(
      ::stat((dir + "/quarantine/" + ManifestGeneration::CheckpointName(1))
                 .c_str(),
             &st),
      0);
  RecoveryReport report;
  auto mgr = RecoveryManager::Open(ro, &report);
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ(report.generation, 0u);
  EXPECT_EQ(RecoveredLiveIds((*mgr)->collection()).size(), 60u);
  RemoveTree(dir);
}

TEST(ManifestTest, RoundTripAndBakFallback) {
  std::string dir = TempPath("manifest");
  RemoveTree(dir);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  Manifest m;
  m.current = 7;
  m.generations = {{6, "checkpoint-6.vdb", "wal-6.log"},
                   {7, "checkpoint-7.vdb", "wal-7.log"}};
  ASSERT_TRUE(m.Save(dir).ok());
  auto loaded = Manifest::Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->current, 7u);
  ASSERT_EQ(loaded->generations.size(), 2u);
  EXPECT_EQ(loaded->generations[0].gen, 6u);
  EXPECT_EQ(loaded->generations[1].wal_file, "wal-7.log");

  // Second save keeps the previous manifest at .bak; corrupting the
  // current file falls back to it.
  Manifest m2 = m;
  m2.current = 8;
  m2.generations.push_back({8, "checkpoint-8.vdb", "wal-8.log"});
  ASSERT_TRUE(m2.Save(dir).ok());
  {
    std::ofstream f(Manifest::PathIn(dir),
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  bool used_bak = false;
  auto fallback = Manifest::Load(dir, &used_bak);
  ASSERT_TRUE(fallback.ok());
  EXPECT_TRUE(used_bak);
  EXPECT_EQ(fallback->current, 7u);
  RemoveTree(dir);
}

// Atomic WriteTo: a crash after the temp file is written but before the
// rename must leave the previous file byte-identical (the satellite fix —
// the old in-place WriteTo destroyed it first).
TEST(AtomicWriteTest, CrashBeforeRenameKeepsOldFile) {
  std::string path = TempPath("atomic");
  {
    BinaryWriter w(0xABCD1234);
    w.U64(111);
    ASSERT_TRUE(w.WriteTo(path).ok());
  }
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Failpoints::Instance().Arm("crash.serializer.tmp_written");
    BinaryWriter w(0xABCD1234);
    w.U64(222);
    (void)w.WriteTo(path);
    ::_exit(7);  // unreachable: the crash site fires first
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 2);
  auto r = BinaryReader::Open(path, 0xABCD1234);
  ASSERT_TRUE(r.ok());  // old file intact, CRC valid
  auto v = r->U64();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 111u);
  // The orphaned temp file is the new content, fully written.
  auto tmp = BinaryReader::Open(path + ".tmp", 0xABCD1234);
  ASSERT_TRUE(tmp.ok());
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
}

// Torn-tail truncation: garbage after the last valid record must be cut
// before the log reopens, or later appends are unreachable on replay.
TEST(WalTornTailTest, TruncatesBeforeAppend) {
  std::string wal_path = TempPath("torn_wal");
  ::unlink(wal_path.c_str());
  CollectionOptions opts;
  opts.dim = kDim;
  opts.wal_path = wal_path;
  {
    auto c = Collection::Open(opts);
    ASSERT_TRUE(c.ok());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE((*c)->Insert(id, VecOf(id)).ok());
    }
  }
  std::size_t clean_size;
  {
    struct stat st;
    ASSERT_EQ(::stat(wal_path.c_str(), &st), 0);
    clean_size = st.st_size;
    std::ofstream f(wal_path, std::ios::binary | std::ios::app);
    f.write("\x13garbage-torn-frame\x37", 20);  // simulated torn append
  }
  Counter& torn =
      Registry::Global().GetCounter("vdb_recovery_torn_bytes_truncated_total");
  const std::uint64_t torn_before = torn.Value();
  {
    auto c = Collection::Open(opts);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ((*c)->Size(), 3u);
    struct stat st;
    ASSERT_EQ(::stat(wal_path.c_str(), &st), 0);
    EXPECT_EQ(static_cast<std::size_t>(st.st_size), clean_size);  // truncated
    EXPECT_EQ(torn.Value(), torn_before + 20);
    ASSERT_TRUE((*c)->Insert(4, VecOf(4)).ok());  // lands after valid tail
  }
  {
    auto c = Collection::Open(opts);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ((*c)->Size(), 4u);  // the post-recovery append is reachable
  }
  ::unlink(wal_path.c_str());
}

// --------------------------- Checkpoint/Restore edge cases (satellite)

TEST(CheckpointEdgeTest, EmptyCollectionRoundTrips) {
  std::string snap = TempPath("ck_empty");
  CollectionOptions opts;
  opts.dim = kDim;
  auto c = Collection::Create(opts);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->Checkpoint(snap).ok());
  auto restored = Collection::Restore(opts, snap);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Size(), 0u);
  EXPECT_TRUE((*restored)->Insert(1, VecOf(1)).ok());
  ::unlink(snap.c_str());
}

TEST(CheckpointEdgeTest, AllRowsDeletedRoundTrips) {
  std::string snap = TempPath("ck_alldel");
  CollectionOptions opts;
  opts.dim = kDim;
  auto c = Collection::Create(opts);
  ASSERT_TRUE(c.ok());
  for (std::uint64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE((*c)->Insert(id, VecOf(id)).ok());
  }
  for (std::uint64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE((*c)->Delete(id).ok());
  }
  ASSERT_TRUE((*c)->Checkpoint(snap).ok());
  auto restored = Collection::Restore(opts, snap);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->Size(), 0u);
  // Deleted ids are genuinely gone, not tombstoned: re-insert works.
  EXPECT_TRUE((*restored)->Insert(5, VecOf(5)).ok());
  ::unlink(snap.c_str());
}

TEST(CheckpointEdgeTest, MidWalCheckpointReplaysTailOnTop) {
  std::string snap = TempPath("ck_midwal");
  std::string wal_path = TempPath("ck_midwal_wal");
  ::unlink(wal_path.c_str());
  CollectionOptions opts;
  opts.dim = kDim;
  opts.wal_path = wal_path;
  {
    auto c = Collection::Open(opts);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Insert(1, VecOf(1)).ok());
    ASSERT_TRUE((*c)->Insert(2, VecOf(2)).ok());
    // Checkpoint mid-WAL: the log keeps records both covered by the
    // snapshot and after it.
    ASSERT_TRUE((*c)->Checkpoint(snap).ok());
    ASSERT_TRUE((*c)->Insert(3, VecOf(3)).ok());
    ASSERT_TRUE((*c)->Delete(1).ok());
  }
  auto restored = Collection::Restore(opts, snap);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::set<std::uint64_t> ids = RecoveredLiveIds(**restored);
  EXPECT_EQ(ids, (std::set<std::uint64_t>{2, 3}));
  ::unlink(snap.c_str());
  ::unlink(wal_path.c_str());
}

TEST(CheckpointEdgeTest, DimMismatchIsRejected) {
  std::string snap = TempPath("ck_dim");
  CollectionOptions opts;
  opts.dim = kDim;
  auto c = Collection::Create(opts);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->Insert(1, VecOf(1)).ok());
  ASSERT_TRUE((*c)->Checkpoint(snap).ok());
  CollectionOptions other;
  other.dim = kDim * 2;
  auto restored = Collection::Restore(other, snap);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  ::unlink(snap.c_str());
}

/// The bytes of the file at `path`.
std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

std::size_t Occurrences(const std::string& haystack,
                        const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// A clean HNSW segment comes back from the checkpoint's structure, with
// no rebuild, and searches as before.
TEST(RecoveryTest, HnswSegmentIsLoadedNotRebuilt) {
  std::string dir = TempPath("idx_snap");
  RemoveTree(dir);
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(0);  // HNSW
  {
    auto mgr = RecoveryManager::Open(ro);
    ASSERT_TRUE(mgr.ok());
    Collection& c = (*mgr)->collection();
    for (std::uint64_t id = 1; id <= 64; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE(c.BuildIndex().ok());
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
  }
  RecoveryReport report;
  auto mgr = RecoveryManager::Open(ro, &report);
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ(report.rows_rebuilt, 0u);
  EXPECT_EQ((*mgr)->collection().SegmentCount(), 1u);
  std::vector<Neighbor> hit;
  ASSERT_TRUE((*mgr)->collection().Knn(VecOf(17), 1, &hit).ok());
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].id, 17u);
  RemoveTree(dir);
}

// A generation writes each row once: a planted vector's bytes appear
// exactly once among its files, the WAL aside.
TEST(RecoveryTest, CheckpointWritesEachRowOnce) {
  std::string dir = TempPath("row_once");
  RemoveTree(dir);
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(0);  // HNSW, in place
  const std::vector<float> planted = {1234.5f, -8765.25f, 42.125f, 3.0625f};
  {
    auto mgr = RecoveryManager::Open(ro);
    ASSERT_TRUE(mgr.ok());
    Collection& c = (*mgr)->collection();
    for (std::uint64_t id = 1; id <= 64; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE(c.Insert(99, planted).ok());
    ASSERT_TRUE(c.BuildIndex().ok());
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    EXPECT_EQ((*mgr)->generation(), 1u);
  }
  const std::string needle(reinterpret_cast<const char*>(planted.data()),
                           planted.size() * sizeof(float));
  std::size_t copies = 0;
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.find("-1.") == std::string::npos || name == "wal-1.log") continue;
    copies += Occurrences(FileBytes(dir + "/" + name), needle);
  }
  ::closedir(d);
  EXPECT_EQ(copies, 1u);
  RemoveTree(dir);
}

// A checkpoint loses no row when the factory changes: under IVF-Flat the
// HNSW segment is rebuilt from its rows, and without a factory its rows
// grow.
TEST(RecoveryTest, ForeignOrMissingFactoryRestoresEveryRow) {
  std::string dir = TempPath("foreign");
  RemoveTree(dir);
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(0);  // HNSW
  {
    auto mgr = RecoveryManager::Open(ro);
    ASSERT_TRUE(mgr.ok());
    Collection& c = (*mgr)->collection();
    for (std::uint64_t id = 1; id <= 64; ++id) {
      ASSERT_TRUE(c.Insert(id, VecOf(id)).ok());
    }
    ASSERT_TRUE(c.BuildIndex().ok());
    ASSERT_TRUE(c.Delete(5).ok());  // a tombstone the rebuild drops
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
  }
  std::set<std::uint64_t> want;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    if (id != 5) want.insert(id);
  }

  ro.collection.index_factory = [] {
    IvfOptions o;
    o.nlist = 4;
    o.default_nprobe = 4;
    return std::make_unique<IvfFlatIndex>(o);
  };
  {
    RecoveryReport report;
    auto mgr = RecoveryManager::Open(ro, &report);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    const Collection& c = (*mgr)->collection();
    EXPECT_EQ(report.rows_rebuilt, 63u);
    EXPECT_EQ(c.SegmentCount(), 1u);
    EXPECT_EQ(c.UnindexedRows(), 0u);
    EXPECT_EQ(RecoveredLiveIds(c), want);
    std::vector<Neighbor> hit;
    ASSERT_TRUE(c.Knn(VecOf(17), 1, &hit).ok());
    ASSERT_EQ(hit.size(), 1u);
    EXPECT_EQ(hit[0].id, 17u);
  }

  ro.collection.index_factory = nullptr;
  {
    RecoveryReport report;
    auto mgr = RecoveryManager::Open(ro, &report);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    const Collection& c = (*mgr)->collection();
    EXPECT_EQ(report.rows_rebuilt, 0u);
    EXPECT_EQ(c.SegmentCount(), 0u);
    EXPECT_EQ(c.UnindexedRows(), 63u);
    EXPECT_EQ(RecoveredLiveIds(c), want);
  }

  // A rebuild that fails is reported as itself: the checkpoint's bytes
  // are sound, so no generation is discarded for it.
  ro.collection.index_factory = [] { return std::unique_ptr<VectorIndex>(); };
  auto failed = RecoveryManager::Open(ro);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal)
      << failed.status().ToString();
  RemoveTree(dir);
}

// A directory written before the checkpoint held the segment list
// (format1_dir_fixture.h) opens: its rows all come back and are indexed
// by a rebuild, and the next checkpoint writes the segment list, which
// the open after it loads without one.
TEST(RecoveryTest, Format1DirectoryOpensThroughRebuild) {
  std::string dir = TempPath("format1");
  RemoveTree(dir);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  for (const fixtures::DirFile& f : fixtures::kFormat1Dir) {
    std::ofstream(dir + "/" + f.name, std::ios::binary)
        .write(reinterpret_cast<const char*>(f.bytes.data()),
               static_cast<std::streamsize>(f.bytes.size()));
  }
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection.dim = kDim;
  ro.collection.attributes = {{"seq", AttrType::kInt64}};
  ro.collection.index_factory = [] {
    HnswOptions h;
    h.m = 4;
    h.ef_construction = 16;
    return std::make_unique<HnswIndex>(h);
  };
  std::set<std::uint64_t> want = {200};
  for (std::uint64_t id = 100; id < 116; ++id) {
    if (id != 103 && id != 105) want.insert(id);
  }
  const std::vector<float> added = {0.5f, -0.25f, 0.75f, 1.0f};
  {
    RecoveryReport report;
    auto mgr = RecoveryManager::Open(ro, &report);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    Collection& c = (*mgr)->collection();
    EXPECT_EQ(report.generation, 2u);
    EXPECT_EQ(report.wal_records_replayed, 2u);
    EXPECT_EQ(report.rows_rebuilt, want.size());
    EXPECT_EQ(c.SegmentCount(), 1u);
    EXPECT_EQ(RecoveredLiveIds(c), want);
    std::vector<Neighbor> hit;
    ASSERT_TRUE(c.Knn(added, 1, &hit).ok());
    ASSERT_EQ(hit.size(), 1u);
    EXPECT_EQ(hit[0].id, 200u);
    EXPECT_EQ(hit[0].dist, 0.0f);
    auto seq = c.attributes().Get(200, "seq");
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(std::get<std::int64_t>(*seq), 16);
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
  }
  RecoveryReport report;
  auto mgr = RecoveryManager::Open(ro, &report);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_EQ(report.generation, 3u);
  EXPECT_EQ(report.rows_rebuilt, 0u);
  EXPECT_EQ(RecoveredLiveIds((*mgr)->collection()), want);
  RemoveTree(dir);
}

// What Open found lives in its RecoveryReport; the registry counts what
// no report returns: checkpoints, their latency and the generations they
// garbage-collect.
TEST(RecoveryTest, ReportAndCheckpointCountersMove) {
  auto& reg = Registry::Global();
  Counter& checkpoints = reg.GetCounter("vdb_recovery_checkpoints_total");
  Histogram& checkpoint_latency =
      reg.GetHistogram("vdb_recovery_checkpoint_seconds");
  Counter& gced = reg.GetCounter("vdb_recovery_generations_gced_total");
  const std::uint64_t checkpoints_before = checkpoints.Value();
  const std::uint64_t latency_before = checkpoint_latency.Count();
  const std::uint64_t gced_before = gced.Value();
  std::string dir = TempPath("telemetry");
  RemoveTree(dir);
  RecoveryOptions ro;
  ro.dir = dir;
  ro.collection = WorkloadOptions(1);
  {
    RecoveryReport report;
    auto mgr = RecoveryManager::Open(ro, &report);
    ASSERT_TRUE(mgr.ok());
    EXPECT_TRUE(report.fresh_start);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      ASSERT_TRUE((*mgr)->collection().Insert(id, VecOf(id)).ok());
    }
  }
  RecoveryReport report;
  auto mgr = RecoveryManager::Open(ro, &report);
  ASSERT_TRUE(mgr.ok());
  EXPECT_FALSE(report.fresh_start);
  EXPECT_EQ(report.generation, 0u);
  EXPECT_EQ(report.generations_found, 1u);
  EXPECT_EQ(report.generations_discarded, 0u);
  EXPECT_EQ(report.wal_records_replayed, 5u);
  EXPECT_GT(report.wall_seconds, 0.0);

  // Two generations are kept, so the second and third checkpoints each
  // collect one.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE((*mgr)->Checkpoint().ok());
  EXPECT_EQ((*mgr)->generation(), 3u);
  EXPECT_EQ(checkpoints.Value(), checkpoints_before + 3);
  EXPECT_EQ(checkpoint_latency.Count(), latency_before + 3);
  EXPECT_EQ(gced.Value(), gced_before + 2);
  RemoveTree(dir);
}

}  // namespace
}  // namespace vdb
