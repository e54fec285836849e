#include "txdb/checkpoint_io.h"

#include <cstring>
#include <set>

#include "io/blob.h"
#include "io/file.h"
#include "util/pod.h"

namespace cpr::txdb {

namespace {

constexpr uint64_t kMetaMagic = 0x4350525F434B5054ull;  // "CPR_CKPT"
constexpr uint64_t kDataMagic = 0x4350525F44415441ull;  // "CPR_DATA"

GenerationChain DataChain(const std::string& dir) {
  return GenerationChain(dir, "v", ".data");
}

Status DecodeMetaPayload(const std::vector<char>& mbuf, CheckpointMeta* meta) {
  const Status truncated = Status::Corruption("truncated checkpoint metadata");
  PodReader r(mbuf);
  uint8_t is_delta = 0;
  uint64_t num_tables = 0;
  if (!r.Pod(&meta->version) || !r.Pod(&is_delta) ||
      !r.Pod(&meta->data_bytes) || !r.Pod(&num_tables)) {
    return truncated;
  }
  meta->is_delta = is_delta != 0;
  meta->table_schemas.clear();
  for (uint64_t i = 0; i < num_tables; ++i) {
    uint64_t rows = 0;
    uint32_t vsize = 0;
    if (!r.Pod(&rows) || !r.Pod(&vsize)) return truncated;
    meta->table_schemas.emplace_back(rows, vsize);
  }
  uint64_t num_points = 0;
  if (!r.Pod(&num_points)) return truncated;
  meta->points.clear();
  for (uint64_t i = 0; i < num_points; ++i) {
    CommitPoint p;
    if (!r.Pod(&p.thread_id) || !r.Pod(&p.serial) || !r.Pod(&p.guid)) {
      return truncated;
    }
    meta->points.push_back(p);
  }
  return Status::Ok();
}

// Applies generation `version` to `storage`, first walking its delta chain
// back to the full base and replaying base → `version`. Only touches
// `storage` once every meta of the chain verified; a failure while applying
// is retry-safe because every chain replays from a full base that
// overwrites all rows.
Status ApplyGeneration(const std::string& dir, uint64_t version,
                       Storage& storage, CheckpointMeta* meta) {
  Status s = ReadCheckpointMeta(dir, version, meta);
  if (!s.ok()) return s;
  std::vector<uint64_t> chain;  // versions, newest first
  CheckpointMeta walk = *meta;
  while (walk.is_delta) {
    chain.push_back(walk.version);
    if (walk.version <= 1) {
      return Status::Corruption("delta chain broken at v" +
                                std::to_string(walk.version));
    }
    s = ReadCheckpointMeta(dir, walk.version - 1, &walk);
    if (!s.ok()) return s;
  }
  chain.push_back(walk.version);  // the full base
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    CheckpointMeta m;
    std::vector<char> d;
    s = ReadCheckpointAt(dir, *it, &m, &d);
    if (s.ok()) s = ApplyCheckpointData(storage, m, d);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

GenerationChain CheckpointChain(const std::string& dir) {
  return GenerationChain(dir, "v", ".meta", LatestForm::kNumber);
}

Status WriteCheckpoint(const std::string& dir, const CheckpointMeta& meta,
                       const std::vector<char>& data, bool sync) {
  Status s = CreateDirectories(dir);
  if (!s.ok()) return s;

  s = WriteCheckedBlob(DataChain(dir).Path(meta.version), kDataMagic, data,
                       sync);
  if (!s.ok()) return s;

  std::vector<char> mbuf;
  PutPod(&mbuf, meta.version);
  PutPod(&mbuf, static_cast<uint8_t>(meta.is_delta ? 1 : 0));
  PutPod(&mbuf, static_cast<uint64_t>(data.size()));
  PutPod(&mbuf, static_cast<uint64_t>(meta.table_schemas.size()));
  for (const auto& [rows, vsize] : meta.table_schemas) {
    PutPod(&mbuf, rows);
    PutPod(&mbuf, vsize);
  }
  PutPod(&mbuf, static_cast<uint64_t>(meta.points.size()));
  for (const CommitPoint& p : meta.points) {
    PutPod(&mbuf, p.thread_id);
    PutPod(&mbuf, p.serial);
    PutPod(&mbuf, p.guid);
  }
  const GenerationChain chain = CheckpointChain(dir);
  s = WriteCheckedBlob(chain.Path(meta.version), kMetaMagic, mbuf, sync);
  if (!s.ok()) return s;
  return chain.Publish(meta.version, sync);
}

Status ReadCheckpointMeta(const std::string& dir, uint64_t version,
                          CheckpointMeta* meta) {
  std::vector<char> mbuf;
  Status s =
      ReadCheckedBlob(CheckpointChain(dir).Path(version), kMetaMagic, &mbuf);
  if (!s.ok()) return s;
  s = DecodeMetaPayload(mbuf, meta);
  if (!s.ok()) return s;
  if (meta->version != version) {
    return Status::Corruption("checkpoint meta names wrong version");
  }
  return Status::Ok();
}

Status ReadCheckpointAt(const std::string& dir, uint64_t version,
                        CheckpointMeta* meta, std::vector<char>* data) {
  Status s = ReadCheckpointMeta(dir, version, meta);
  if (!s.ok()) return s;
  s = ReadCheckedBlob(DataChain(dir).Path(version), kDataMagic, data);
  if (!s.ok()) return s;
  if (data->size() != meta->data_bytes) {
    return Status::Corruption("checkpoint data size mismatch");
  }
  return Status::Ok();
}

Status RecoverCheckpoint(const std::string& dir, Storage& storage,
                         CheckpointMeta* meta) {
  return CheckpointChain(dir).Walk([&](uint64_t version) {
    return ApplyGeneration(dir, version, storage, meta);
  });
}

Status RetainCheckpoints(const std::string& dir, uint32_t retain) {
  if (retain == 0) return Status::Ok();
  const GenerationChain metas = CheckpointChain(dir);
  const std::vector<uint64_t> versions = metas.List();
  std::set<uint64_t> keep;
  for (size_t i = 0; i < versions.size() && i < retain; ++i) {
    keep.insert(versions[i]);
    // A retained delta generation needs its whole chain down to a full base.
    uint64_t w = versions[i];
    while (w > 1) {
      CheckpointMeta m;
      if (!ReadCheckpointMeta(dir, w, &m).ok()) break;  // conservative stop
      if (!m.is_delta) break;
      --w;
      keep.insert(w);
    }
  }
  // Best-effort: a failed delete leaves an extra generation behind.
  metas.Prune(keep);
  DataChain(dir).Prune(keep);
  return Status::Ok();
}

Status ApplyCheckpointData(Storage& storage, const CheckpointMeta& meta,
                           const std::vector<char>& data) {
  if (meta.table_schemas.size() != storage.num_tables()) {
    return Status::Corruption("checkpoint schema mismatch (table count)");
  }
  for (uint32_t t = 0; t < storage.num_tables(); ++t) {
    const auto& [rows, vsize] = meta.table_schemas[t];
    if (rows != storage.table(t).rows() ||
        vsize != storage.table(t).value_size()) {
      return Status::Corruption("checkpoint schema mismatch (table shape)");
    }
  }
  PodReader r(data);
  const char* src = nullptr;
  if (!meta.is_delta) {
    for (uint32_t t = 0; t < storage.num_tables(); ++t) {
      Table& table = storage.table(t);
      const uint32_t vsize = table.value_size();
      for (uint64_t row = 0; row < table.rows(); ++row) {
        if (!r.Skip(vsize, &src)) {
          return Status::Corruption("full checkpoint data truncated");
        }
        std::memcpy(table.live(row), src, vsize);
      }
    }
    return Status::Ok();
  }
  while (!r.AtEnd()) {
    uint32_t t = 0;
    uint64_t row = 0;
    if (!r.Pod(&t) || !r.Pod(&row)) {
      return Status::Corruption("delta entry header truncated");
    }
    if (t >= storage.num_tables() || row >= storage.table(t).rows()) {
      return Status::Corruption("delta entry out of range");
    }
    Table& table = storage.table(t);
    if (!r.Skip(table.value_size(), &src)) {
      return Status::Corruption("delta entry value truncated");
    }
    std::memcpy(table.live(row), src, table.value_size());
  }
  return Status::Ok();
}

}  // namespace cpr::txdb
