#ifndef CPR_IO_GENERATIONS_H_
#define CPR_IO_GENERATIONS_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace cpr {

// What a chain's <dir>/LATEST pointer holds.
enum class LatestForm : uint8_t {
  kNone,    // the chain publishes no LATEST (its directory's LATEST, if any,
            // belongs to another chain and is never read)
  kNumber,  // the generation number: "42"
  kName,    // the generation's file name: "manifest.42.meta"
};

// One generation chain: the files <prefix><n><suffix> in one directory, one
// per durable commit. Every checkpoint and manifest chain in the library
// (FasterKv checkpoints, ShardedKv manifests, txdb checkpoints, provider
// manifests) names, orders, recovers and prunes its generations here; the
// callers own only their payload formats and keep policies.
//
// LATEST is the publish point: a generation is committed once LATEST names
// it, so recovery tries that generation first even when a newer one exists
// on disk (written, then crashed before publication). The remaining
// generations follow newest-first as the fallback when the published one
// does not load.
class GenerationChain {
 public:
  GenerationChain(std::string dir, std::string prefix, std::string suffix,
                  LatestForm latest = LatestForm::kNone);

  std::string Name(uint64_t gen) const;
  std::string Path(uint64_t gen) const;

  // Parses a file name of this chain. False for foreign names, names with
  // no digits, a non-digit or a leading zero between prefix and suffix, and
  // numbers that do not fit in 64 bits: Name(n) is the only name of n.
  bool Parse(const std::string& name, uint64_t* gen) const;

  // Every generation on disk, newest first. A missing directory is empty.
  std::vector<uint64_t> List() const;

  // The order recovery tries generations in: the one LATEST names first,
  // when LATEST parses and that generation exists, then all others
  // newest-first.
  std::vector<uint64_t> RecoveryOrder() const;

  // Publishes `gen` as LATEST durably: tmp file, sync, rename, parent
  // fsync. A kNone chain has nothing to publish.
  Status Publish(uint64_t gen, bool sync) const;

  // The walk rule: tries `load` on each generation in RecoveryOrder and
  // returns at the first Ok. NotFound with no candidates. When every
  // candidate fails, the last error is returned with its code unless it is
  // Corruption, and as Corruption otherwise — so a configuration error
  // (InvalidArgument, IoError) stays distinguishable from a corrupt chain.
  Status Walk(const std::function<Status(uint64_t)>& load) const;

  // Deletes every generation of this chain not in `keep`, through
  // RemoveFileIfExists so the fault injector sees each delete. Returns the
  // first failed delete (the rest are still attempted).
  Status Prune(const std::set<uint64_t>& keep) const;

 private:
  std::string dir_;
  std::string prefix_;
  std::string suffix_;
  LatestForm latest_;
};

}  // namespace cpr

#endif  // CPR_IO_GENERATIONS_H_
