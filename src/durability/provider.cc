#include "durability/provider.h"

#include <set>
#include <vector>

#include "io/blob.h"
#include "io/file.h"
#include "io/generations.h"
#include "util/pod.h"

namespace cpr::durability {

namespace {

constexpr uint64_t kProviderMagic = 0x43505250524F5644ull;  // "CPRPROVD"

// provider.<gen>.meta in the durability directory. No LATEST: the directory's
// LATEST belongs to the txdb checkpoint chain, so recovery order is plain
// newest-first.
GenerationChain ManifestChain(const std::string& dir) {
  return GenerationChain(dir, "provider.", ".meta");
}

// Payload layout: u64 generation | u8 kind | u64 base_version.
Status LoadManifest(const GenerationChain& chain, uint64_t gen,
                    ProviderManifest* manifest) {
  std::vector<char> payload;
  Status s = ReadCheckedBlob(chain.Path(gen), kProviderMagic, &payload);
  if (!s.ok()) return s;
  PodReader r(payload);
  uint8_t kind = 0;
  if (!r.Pod(&manifest->generation) || !r.Pod(&kind) ||
      !r.Pod(&manifest->base_version) || !r.AtEnd() ||
      kind > kMaxProviderKind || manifest->generation != gen) {
    return Status::Corruption("provider manifest invalid: " + chain.Path(gen));
  }
  manifest->kind = static_cast<ProviderKind>(kind);
  return Status::Ok();
}

}  // namespace

const char* ProviderKindName(ProviderKind kind) {
  switch (kind) {
    case ProviderKind::kCpr:
      return "cpr";
    case ProviderKind::kCalc:
      return "calc";
    case ProviderKind::kWal:
      return "wal";
  }
  return "?";
}

bool ParseProviderKind(const std::string& name, ProviderKind* out) {
  if (name == "cpr") {
    *out = ProviderKind::kCpr;
  } else if (name == "calc") {
    *out = ProviderKind::kCalc;
  } else if (name == "wal") {
    *out = ProviderKind::kWal;
  } else {
    return false;
  }
  return true;
}

Status WriteProviderManifest(const std::string& dir,
                             const ProviderManifest& manifest, bool sync) {
  Status s = CreateDirectories(dir);
  if (!s.ok()) return s;
  std::vector<char> payload;
  PutPod(&payload, manifest.generation);
  PutPod(&payload, static_cast<uint8_t>(manifest.kind));
  PutPod(&payload, manifest.base_version);
  return WriteCheckedBlob(ManifestChain(dir).Path(manifest.generation),
                          kProviderMagic, payload, sync);
}

Status ReadLatestProviderManifest(const std::string& dir,
                                  ProviderManifest* manifest) {
  // A torn newest generation (crash mid-publish) falls back to the previous
  // provider.
  const GenerationChain chain = ManifestChain(dir);
  return chain.Walk(
      [&](uint64_t gen) { return LoadManifest(chain, gen, manifest); });
}

Status RetainProviderManifests(const std::string& dir, uint32_t retain) {
  if (retain == 0) return Status::Ok();
  // Only a *verifying* manifest counts toward the retention quota, so a
  // torn newest generation can never evict the valid one under it.
  const GenerationChain chain = ManifestChain(dir);
  std::set<uint64_t> keep;
  uint32_t kept = 0;
  for (uint64_t gen : chain.List()) {
    if (kept == retain) break;
    keep.insert(gen);
    ProviderManifest m;
    if (LoadManifest(chain, gen, &m).ok()) ++kept;
  }
  return chain.Prune(keep);
}

}  // namespace cpr::durability
