#ifndef CPR_TXDB_CHECKPOINT_IO_H_
#define CPR_TXDB_CHECKPOINT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "io/generations.h"
#include "txdb/table.h"
#include "txdb/types.h"
#include "util/status.h"

namespace cpr::txdb {

// On-disk checkpoint format shared by the CPR and CALC engines.
//
//   <dir>/v<version>.data   checked blob (io/blob.h) holding the captured
//                           values: full captures concatenate tables in id
//                           order, delta captures hold per-row entries
//   <dir>/v<version>.meta   checked blob holding the metadata payload:
//                           version, is_delta, data_bytes, table schemas,
//                           commit points
//   <dir>/LATEST            textual version number, published durably via
//                           tmp+rename+parent-fsync (io/generations.h)
//
// Both blobs carry magic/version headers and CRC32C checksums, so recovery
// can detect a torn or bit-flipped generation and walk back to the newest
// valid one. The last `retain` generations are kept on disk (plus any older
// versions a retained delta chain still needs); see RetainCheckpoints.
struct CheckpointMeta {
  uint64_t version = 0;
  // Delta checkpoints (the paper's "capture only records that changed since
  // the last commit" optimization, §4.1) contain per-row entries and build
  // on the version-1 checkpoint; full checkpoints contain every row.
  bool is_delta = false;
  uint64_t data_bytes = 0;
  std::vector<std::pair<uint64_t, uint32_t>> table_schemas;  // rows, vsize
  std::vector<CommitPoint> points;
};

// The chain of v<version>.meta files in `dir` (LATEST holds the number).
GenerationChain CheckpointChain(const std::string& dir);

// Writes `data` (the captured snapshot) and metadata, then publishes LATEST.
Status WriteCheckpoint(const std::string& dir, const CheckpointMeta& meta,
                       const std::vector<char>& data, bool sync);

// The recovery walk of the CPR and CALC engines: applies to `storage` the
// first generation, in the chain's recovery order, whose delta chain reads,
// verifies and applies from its full base up (a CALC generation is a chain
// of length one), and returns that generation's metadata. Walk rule and
// error codes as GenerationChain::Walk.
Status RecoverCheckpoint(const std::string& dir, Storage& storage,
                         CheckpointMeta* meta);

// Reads a specific checkpoint version (used to walk a delta chain back to
// its full base). Verifies both blobs' checksums.
Status ReadCheckpointAt(const std::string& dir, uint64_t version,
                        CheckpointMeta* meta, std::vector<char>* data);

// Reads and verifies only the metadata blob of `version` (cheap chain walk
// and retention decisions).
Status ReadCheckpointMeta(const std::string& dir, uint64_t version,
                          CheckpointMeta* meta);

// Deletes checkpoint generations beyond the newest `retain`, preserving any
// older version a retained delta chain still needs to reach its full base.
// retain == 0 disables garbage collection. Best-effort: an unreadable meta
// stops chain analysis conservatively (the version is kept).
Status RetainCheckpoints(const std::string& dir, uint32_t retain);

// Applies one checkpoint's data to the tables: full images overwrite every
// row; delta images overwrite just their (table, row) entries. Shared by the
// CPR and CALC engines' recovery paths.
Status ApplyCheckpointData(Storage& storage, const CheckpointMeta& meta,
                           const std::vector<char>& data);

// Layout of one delta-data entry: u32 table_id, u64 row, value bytes
// (value_size of the table).
inline constexpr size_t kDeltaEntryHeaderBytes =
    sizeof(uint32_t) + sizeof(uint64_t);

}  // namespace cpr::txdb

#endif  // CPR_TXDB_CHECKPOINT_IO_H_
