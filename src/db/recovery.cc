#include "db/recovery.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/failpoint.h"
#include "core/telemetry.h"

namespace vdb {

namespace {

/// Generations kept after a checkpoint: two, so a corrupted newest
/// checkpoint can fall back to the previous one.
constexpr std::size_t kRetainGenerations = 2;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::size_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

}  // namespace

Result<std::unique_ptr<RecoveryManager>> RecoveryManager::Open(
    RecoveryOptions opts, RecoveryReport* report) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport{};

  if (opts.dir.empty()) {
    return Status::InvalidArgument("recovery dir must be set");
  }
  if (::mkdir(opts.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + opts.dir + ": " + std::strerror(errno));
  }
  opts.collection.wal_path.clear();  // the manager owns WAL routing

  auto mgr =
      std::unique_ptr<RecoveryManager>(new RecoveryManager(std::move(opts)));
  const RecoveryOptions& o = mgr->opts_;

  bool used_bak = false;
  auto manifest = Manifest::Load(o.dir, &used_bak);
  if (!manifest.ok()) {
    if (FileExists(Manifest::PathIn(o.dir)) ||
        FileExists(Manifest::BakPathIn(o.dir))) {
      // A manifest exists but neither copy is readable: refuse to guess
      // (the scrubber reports and quarantines; an operator decides).
      return manifest.status();
    }
    // Fresh directory: initialize generation 0 so every later Open walks
    // the same manifest-driven path.
    VDB_ASSIGN_OR_RETURN(mgr->collection_,
                         Collection::Create(o.collection));
    rep.fresh_start = true;
    VDB_RETURN_IF_ERROR(mgr->InstallGeneration(0));
  } else {
    mgr->manifest_ = std::move(*manifest);
    rep.used_bak_manifest = used_bak;
    rep.generations_found = mgr->manifest_.generations.size();

    // Decision 1: newest generation whose checkpoint passes its CRC wins;
    // a corrupt or missing checkpoint falls back one generation. Its
    // sealed segments come back with it, before the WAL replays into them
    // like live traffic. Any other failure (a segment rebuild that cannot
    // write its files, say) is returned as it is.
    const ManifestGeneration* chosen = nullptr;
    for (auto it = mgr->manifest_.generations.rbegin();
         it != mgr->manifest_.generations.rend(); ++it) {
      const std::string path = mgr->PathOf(it->checkpoint_file);
      auto restored =
          Collection::Restore(o.collection, path, &rep.rows_rebuilt);
      if (restored.ok()) {
        chosen = &*it;
        mgr->collection_ = std::move(*restored);
        break;
      }
      if (restored.status().code() != StatusCode::kCorruption &&
          FileExists(path)) {
        return restored.status();
      }
      ++rep.generations_discarded;
    }
    if (chosen == nullptr) {
      return Status::Corruption(
          "no recoverable generation in " + o.dir + " (run the scrubber)");
    }
    rep.generation = chosen->gen;

    // Decision 2: replay the WAL chain from the chosen generation to the
    // newest, in order — fallback recovery still reaches the present.
    const ManifestGeneration& newest = mgr->manifest_.generations.back();
    for (const auto& g : mgr->manifest_.generations) {
      if (g.gen < chosen->gen) continue;
      const std::string wal_path = mgr->PathOf(g.wal_file);
      std::size_t applied = 0;
      std::size_t valid_bytes = 0;
      VDB_RETURN_IF_ERROR(
          mgr->collection_->ReplayWalFile(wal_path, &applied, &valid_bytes));
      rep.wal_records_replayed += applied;
      if (&g == &newest) {
        // Only the live log can have a torn tail; cut it before appending.
        std::size_t size = FileSize(wal_path);
        if (size > valid_bytes) rep.torn_bytes_truncated = size - valid_bytes;
        VDB_RETURN_IF_ERROR(Wal::TruncateTo(wal_path, valid_bytes));
      }
    }
    VDB_RETURN_IF_ERROR(mgr->collection_->AttachWal(mgr->PathOf(newest.wal_file)));

    // Decision 3: with a factory and no segment back (nothing was sealed,
    // or a format-1 checkpoint), index every row.
    Collection& c = *mgr->collection_;
    if (o.collection.index_factory && !c.HasIndex()) {
      const std::size_t rows = c.UnindexedRows();
      Status built = c.BuildIndex();
      if (built.ok()) {
        rep.rows_rebuilt += rows;
      } else if (built.code() != StatusCode::kFailedPrecondition) {
        return built;  // FailedPrecondition = empty collection: fine
      }
    }
  }

  rep.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return mgr;
}

Status RecoveryManager::Checkpoint() {
  auto& reg = Registry::Global();
  static Counter& checkpoints = reg.GetCounter("vdb_recovery_checkpoints_total");
  static Histogram& latency = reg.GetHistogram("vdb_recovery_checkpoint_seconds");
  checkpoints.Inc();
  ScopedLatencyTimer timer(latency);
  // The outgoing WAL is about to be frozen as part of the previous
  // generation; make it durable so fallback recovery (previous checkpoint
  // + its WAL) always reaches the rotation point.
  VDB_RETURN_IF_ERROR(collection_->SyncWal());
  return InstallGeneration(manifest_.current + 1);
}

Status RecoveryManager::InstallGeneration(std::uint64_t gen) {
  ManifestGeneration g;
  g.gen = gen;
  g.checkpoint_file = ManifestGeneration::CheckpointName(gen);
  g.wal_file = ManifestGeneration::WalName(gen);
  VDB_RETURN_IF_ERROR(collection_->Checkpoint(PathOf(g.checkpoint_file)));
  FailpointCrashSite("crash.recovery.checkpoint_written");

  Manifest next;
  next.current = gen;
  // Retain the newest (kRetainGenerations - 1) existing generations; the
  // new one completes the window.
  constexpr std::size_t keep = kRetainGenerations - 1;
  const auto& old = manifest_.generations;
  std::size_t first = old.size() > keep ? old.size() - keep : 0;
  for (std::size_t i = first; i < old.size(); ++i) {
    if (old[i].gen < gen) next.generations.push_back(old[i]);
  }
  next.generations.push_back(g);
  VDB_RETURN_IF_ERROR(next.Save(opts_.dir));
  // The flip is the commit point: recovery now starts from generation
  // `gen`. Rotate appends onto the new WAL before anything else happens.
  VDB_RETURN_IF_ERROR(collection_->AttachWal(PathOf(g.wal_file)));
  FailpointCrashSite("crash.recovery.before_gc");
  GarbageCollect(next);
  manifest_ = std::move(next);
  return Status::Ok();
}

void RecoveryManager::GarbageCollect(const Manifest& next) {
  static Counter& gced = Registry::Global().GetCounter(
      "vdb_recovery_generations_gced_total");
  for (const auto& g : manifest_.generations) {
    if (next.Find(g.gen) != nullptr) continue;
    for (const std::string& file : {g.checkpoint_file, g.wal_file}) {
      ::unlink(PathOf(file).c_str());
      ::unlink((PathOf(file) + ".tmp").c_str());
    }
    gced.Inc();
  }
}

}  // namespace vdb
