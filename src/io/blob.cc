#include "io/blob.h"

#include "io/file.h"
#include "util/crc32c.h"
#include "util/pod.h"

namespace cpr {
namespace {

constexpr uint64_t kMaxBlobPayload = 1ull << 40;  // sanity bound for lengths

// Opens `path` and verifies its header against `magic` and the file size.
Status OpenAndCheckHeader(const std::string& path, uint64_t magic, File* file,
                          uint64_t* len, uint32_t* crc) {
  Status s = File::Open(path, /*create=*/false, file);
  if (!s.ok()) return s;
  const uint64_t size = file->Size();
  if (size < kBlobHeaderBytes) {
    return Status::Corruption("blob truncated: " + path);
  }
  char header[kBlobHeaderBytes];
  s = file->ReadAt(0, header, sizeof(header));
  if (!s.ok()) return s;
  PodReader r(header, sizeof(header));
  uint64_t file_magic = 0;
  uint32_t version = 0;
  r.Pod(&file_magic);
  r.Pod(&version);
  r.Pod(len);
  r.Pod(crc);
  if (file_magic != magic) {
    return Status::Corruption("blob magic mismatch: " + path);
  }
  if (version == 0 || version > kBlobFormatVersion) {
    return Status::Corruption("blob version unsupported: " + path);
  }
  if (*len > kMaxBlobPayload || kBlobHeaderBytes + *len > size) {
    return Status::Corruption("blob length invalid: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status WriteCheckedBlob(const std::string& path, uint64_t magic,
                        const std::vector<char>& payload, bool sync) {
  std::vector<char> buf;
  buf.reserve(kBlobHeaderBytes + payload.size());
  PutPod(&buf, magic);
  PutPod(&buf, kBlobFormatVersion);
  PutPod(&buf, static_cast<uint64_t>(payload.size()));
  PutPod(&buf, Crc32c(payload.data(), payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());

  File file;
  Status s = File::Open(path, /*create=*/true, &file);
  if (!s.ok()) return s;
  s = file.WriteAt(0, buf.data(), buf.size());
  if (!s.ok()) return s;
  if (sync) {
    s = file.Sync();
    if (!s.ok()) return s;
  }
  return file.Close();
}

Status ReadCheckedBlob(const std::string& path, uint64_t magic,
                       std::vector<char>* payload) {
  payload->clear();
  File file;
  uint64_t len = 0;
  uint32_t crc = 0;
  Status s = OpenAndCheckHeader(path, magic, &file, &len, &crc);
  if (!s.ok()) return s;
  payload->resize(len);
  if (len > 0) {
    s = file.ReadAt(kBlobHeaderBytes, payload->data(), len);
    if (!s.ok()) return s;
  }
  if (Crc32c(payload->data(), payload->size()) != crc) {
    payload->clear();
    return Status::Corruption("blob checksum mismatch: " + path);
  }
  return Status::Ok();
}

Status ProbeCheckedBlob(const std::string& path, uint64_t magic) {
  File file;
  uint64_t len = 0;
  uint32_t crc = 0;
  return OpenAndCheckHeader(path, magic, &file, &len, &crc);
}

}  // namespace cpr
