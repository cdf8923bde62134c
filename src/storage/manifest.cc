#include "storage/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/failpoint.h"
#include "storage/serializer.h"

namespace vdb {

namespace {

/// Version 1 also named an index snapshot per generation; it still loads,
/// without that name (the checkpoint holds the segments now).
constexpr std::uint32_t kManifestVersion = 2;

void WriteString(BinaryWriter* w, const std::string& s) {
  w->U32(static_cast<std::uint32_t>(s.size()));
  w->Bytes(s.data(), s.size());
}

Result<std::string> ReadString(BinaryReader* r) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t len, r->U32());
  if (len > r->Remaining()) return Status::Corruption("string overruns file");
  std::string s(len, '\0');
  for (std::uint32_t i = 0; i < len; ++i) {
    VDB_ASSIGN_OR_RETURN(std::uint8_t b, r->U8());
    s[i] = static_cast<char>(b);
  }
  return s;
}

}  // namespace

std::string ManifestGeneration::CheckpointName(std::uint64_t gen) {
  return "checkpoint-" + std::to_string(gen) + ".vdb";
}
std::string ManifestGeneration::WalName(std::uint64_t gen) {
  return "wal-" + std::to_string(gen) + ".log";
}

std::string Manifest::PathIn(const std::string& dir) {
  return dir + "/MANIFEST";
}
std::string Manifest::BakPathIn(const std::string& dir) {
  return dir + "/MANIFEST.bak";
}

Result<Manifest> Manifest::LoadFile(const std::string& path) {
  VDB_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path, kManifestMagic));
  VDB_ASSIGN_OR_RETURN(std::uint32_t version, r.U32());
  if (version != kManifestVersion && version != 1) {
    return Status::Corruption("unsupported manifest version");
  }
  Manifest m;
  VDB_ASSIGN_OR_RETURN(m.current, r.U64());
  VDB_ASSIGN_OR_RETURN(std::uint64_t count, r.U64());
  if (count > 1u << 20) return Status::Corruption("absurd generation count");
  m.generations.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ManifestGeneration g;
    VDB_ASSIGN_OR_RETURN(g.gen, r.U64());
    VDB_ASSIGN_OR_RETURN(g.checkpoint_file, ReadString(&r));
    VDB_ASSIGN_OR_RETURN(g.wal_file, ReadString(&r));
    if (version == 1) VDB_RETURN_IF_ERROR(ReadString(&r).status());
    if (i > 0 && g.gen <= prev) {
      return Status::Corruption("generations not ascending");
    }
    prev = g.gen;
    m.generations.push_back(std::move(g));
  }
  if (m.generations.empty() || m.generations.back().gen != m.current) {
    return Status::Corruption("manifest current generation missing");
  }
  return m;
}

Result<Manifest> Manifest::Load(const std::string& dir, bool* used_bak) {
  if (used_bak != nullptr) *used_bak = false;
  auto current = LoadFile(PathIn(dir));
  if (current.ok()) return current;
  auto bak = LoadFile(BakPathIn(dir));
  if (bak.ok()) {
    if (used_bak != nullptr) *used_bak = true;
    return bak;
  }
  return current.status();  // report the primary failure
}

Status Manifest::Save(const std::string& dir) const {
  BinaryWriter w(kManifestMagic);
  w.U32(kManifestVersion);
  w.U64(current);
  w.U64(generations.size());
  for (const auto& g : generations) {
    w.U64(g.gen);
    WriteString(&w, g.checkpoint_file);
    WriteString(&w, g.wal_file);
  }
  const std::string path = PathIn(dir);
  // Keep the outgoing manifest alive at .bak: if the flip below is torn
  // by a crash, recovery falls back to it (one generation stale, never
  // inconsistent). ENOENT is fine on the very first save.
  if (::rename(path.c_str(), BakPathIn(dir).c_str()) != 0 &&
      errno != ENOENT) {
    return Status::IoError("rename manifest to .bak: " +
                           std::string(std::strerror(errno)));
  }
  FailpointCrashSite("crash.manifest.bak");
  VDB_RETURN_IF_ERROR(w.WriteTo(path));  // atomic: tmp + rename + dir fsync
  FailpointCrashSite("crash.manifest.flipped");
  return Status::Ok();
}

const ManifestGeneration* Manifest::Find(std::uint64_t gen) const {
  for (const auto& g : generations) {
    if (g.gen == gen) return &g;
  }
  return nullptr;
}

}  // namespace vdb
