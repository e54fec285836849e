#ifndef CPR_IO_BLOB_H_
#define CPR_IO_BLOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace cpr {

// Self-verifying on-disk blobs. Every checkpoint artifact (txdb meta/data,
// FasterKv meta/index/snapshot) is written as a "checked blob":
//
//   [u64 magic][u32 format_version][u64 payload_len][u32 crc32c][payload]
//
// The magic identifies the artifact kind, format_version the layout of the
// payload, and the CRC32C covers the payload bytes. ReadCheckedBlob rejects
// torn, truncated, bit-flipped, or wrong-kind files with kCorruption, which
// is what lets recovery walk back to an older valid generation instead of
// loading garbage.

inline constexpr uint32_t kBlobFormatVersion = 1;
inline constexpr size_t kBlobHeaderBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);

// Writes `payload` as a checked blob at `path` (created/truncated). With
// `sync` true the file is fdatasync'd before returning.
Status WriteCheckedBlob(const std::string& path, uint64_t magic,
                        const std::vector<char>& payload, bool sync);

// Reads and verifies a checked blob. Returns kIoError if the file cannot be
// opened and kCorruption if the header, length, or checksum do not match.
Status ReadCheckedBlob(const std::string& path, uint64_t magic,
                       std::vector<char>* payload);

// Shallow structural probe: verifies the header (magic, version, recorded
// payload length vs. file size) WITHOUT reading or checksumming the payload.
// O(1) in the blob size, so recovery preflight can vet a whole candidate
// generation in microseconds. Catches the common crash artifacts — missing,
// truncated, or wrong-kind files — but not payload bit-flips; those are
// still caught by the full ReadCheckedBlob when the artifact is loaded.
Status ProbeCheckedBlob(const std::string& path, uint64_t magic);

}  // namespace cpr

#endif  // CPR_IO_BLOB_H_
