#include "db/scrubber.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>

#include "storage/manifest.h"
#include "storage/serializer.h"
#include "storage/wal.h"

namespace vdb {

namespace {

std::size_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

class Scrub {
 public:
  Scrub(std::string dir, ScrubOptions opts)
      : dir_(std::move(dir)), opts_(opts) {}

  Result<ScrubReport> Run() {
    struct stat st;
    if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      return Status::NotFound("not a directory: " + dir_);
    }
    CheckManifests();
    if (manifest_ok_) {
      for (const auto& g : manifest_.generations) CheckGeneration(g);
    }
    CheckOrphans();

    return std::move(report_);
  }

 private:
  std::string PathOf(const std::string& file) const {
    return dir_ + "/" + file;
  }

  void Record(const std::string& file, const std::string& kind, Status status,
              std::string detail = {}, bool quarantine_on_fail = true) {
    ScrubFileReport fr;
    fr.file = file;
    fr.kind = kind;
    fr.ok = status.ok();
    fr.detail = status.ok() ? std::move(detail) : status.ToString();
    if (fr.ok) {
      ++report_.ok_files;
    } else {
      ++report_.corrupt_files;
      if (opts_.quarantine && quarantine_on_fail) {
        fr.quarantined = Quarantine(file);
        if (fr.quarantined) ++report_.quarantined_files;
      }
    }
    seen_.insert(file);
    report_.files.push_back(std::move(fr));
  }

  bool Quarantine(const std::string& file) {
    const std::string qdir = dir_ + "/quarantine";
    if (::mkdir(qdir.c_str(), 0755) != 0 && errno != EEXIST) return false;
    return ::rename(PathOf(file).c_str(), (qdir + "/" + file).c_str()) == 0;
  }

  void CheckManifests() {
    for (const char* name : {"MANIFEST", "MANIFEST.bak"}) {
      const std::string path = PathOf(name);
      struct stat st;
      if (::stat(path.c_str(), &st) != 0) continue;  // copy not present
      auto m = Manifest::LoadFile(path);
      if (m.ok()) {
        Record(name, "manifest", Status::Ok(),
               "generation " + std::to_string(m->current) + ", " +
                   std::to_string(m->generations.size()) + " retained");
        if (!manifest_ok_) {
          manifest_ = std::move(*m);
          manifest_ok_ = true;
        }
      } else {
        Record(name, "manifest", m.status());
      }
    }
    report_.manifest_readable = manifest_ok_;
  }

  void CheckGeneration(const ManifestGeneration& g) {
    Record(g.checkpoint_file, "checkpoint",
           BinaryReader::Open(PathOf(g.checkpoint_file), kCheckpointMagic)
               .status());
    // A WAL is prefix-valid by construction: count records, report torn
    // bytes past the last valid one, never quarantine (the tail is
    // truncated by the next recovery, not thrown away whole).
    {
      std::size_t applied = 0;
      std::size_t valid_bytes = 0;
      Status s = Wal::Replay(PathOf(g.wal_file), nullptr, &applied,
                             &valid_bytes);
      std::size_t torn = 0;
      if (s.ok()) {
        std::size_t size = FileSize(PathOf(g.wal_file));
        torn = size > valid_bytes ? size - valid_bytes : 0;
        report_.wal_records += applied;
        report_.wal_torn_bytes += torn;
      }
      Record(g.wal_file, "wal", s,
             std::to_string(applied) + " records" +
                 (torn > 0 ? ", " + std::to_string(torn) + " torn bytes"
                           : std::string()),
             /*quarantine_on_fail=*/false);
    }
  }

  void CheckOrphans() {
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return;
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == ".." || seen_.contains(name)) continue;
      struct stat st;
      if (::stat(PathOf(name).c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
        continue;  // quarantine/ and other subdirs
      }
      bool generation_shaped =
          name.rfind("checkpoint-", 0) == 0 || name.rfind("wal-", 0) == 0 ||
          (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0);
      if (!generation_shaped) continue;  // not ours (oracle logs, etc.)
      ScrubFileReport fr;
      fr.file = name;
      fr.kind = "orphan";
      fr.ok = true;  // unreferenced leftovers are garbage, not corruption
      fr.detail = "unreferenced (crashed rotation leftover; GC'd at the "
                  "next checkpoint)";
      ++report_.ok_files;
      report_.files.push_back(std::move(fr));
    }
    ::closedir(d);
  }

  std::string dir_;
  ScrubOptions opts_;
  Manifest manifest_;
  bool manifest_ok_ = false;
  std::set<std::string> seen_;
  ScrubReport report_;
};

}  // namespace

std::string ScrubReport::ToString() const {
  std::string out = "scrub: " + std::to_string(files.size()) + " files, " +
                    std::to_string(ok_files) + " ok, " +
                    std::to_string(corrupt_files) + " corrupt, " +
                    std::to_string(quarantined_files) + " quarantined; " +
                    std::to_string(wal_records) + " wal records, " +
                    std::to_string(wal_torn_bytes) + " torn bytes — " +
                    (clean() ? "CLEAN" : "DIRTY") + "\n";
  for (const auto& f : files) {
    out += "  " + std::string(f.ok ? "ok      " : "CORRUPT ") + f.kind;
    out.append(f.kind.size() < 10 ? 10 - f.kind.size() : 1, ' ');
    out += f.file;
    if (!f.detail.empty()) out += "  (" + f.detail + ")";
    if (f.quarantined) out += "  [quarantined]";
    out += "\n";
  }
  return out;
}

Result<ScrubReport> ScrubDirectory(const std::string& dir,
                                   const ScrubOptions& opts) {
  return Scrub(dir, opts).Run();
}

}  // namespace vdb
