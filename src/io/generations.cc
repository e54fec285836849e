#include "io/generations.h"

#include <algorithm>

#include "io/file.h"

namespace cpr {
namespace {

constexpr uint64_t kMaxLatestBytes = 256;

// Parses s[begin, end) as the decimal form std::to_string writes: non-empty,
// digits only, no leading zero, fits in 64 bits.
bool ParseDigits(const std::string& s, size_t begin, size_t end,
                 uint64_t* out) {
  if (begin >= end || (s[begin] == '0' && end - begin > 1)) return false;
  uint64_t value = 0;
  for (size_t i = begin; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(s[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

GenerationChain::GenerationChain(std::string dir, std::string prefix,
                                 std::string suffix, LatestForm latest)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      suffix_(std::move(suffix)),
      latest_(latest) {}

std::string GenerationChain::Name(uint64_t gen) const {
  return prefix_ + std::to_string(gen) + suffix_;
}

std::string GenerationChain::Path(uint64_t gen) const {
  return dir_ + "/" + Name(gen);
}

bool GenerationChain::Parse(const std::string& name, uint64_t* gen) const {
  if (name.size() <= prefix_.size() + suffix_.size()) return false;
  if (name.compare(0, prefix_.size(), prefix_) != 0) return false;
  if (name.compare(name.size() - suffix_.size(), suffix_.size(), suffix_) !=
      0) {
    return false;
  }
  return ParseDigits(name, prefix_.size(), name.size() - suffix_.size(), gen);
}

std::vector<uint64_t> GenerationChain::List() const {
  std::vector<uint64_t> gens;
  std::vector<std::string> names;
  if (!ListDirectory(dir_, &names).ok()) return gens;
  for (const std::string& name : names) {
    uint64_t gen = 0;
    if (Parse(name, &gen)) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end(), std::greater<uint64_t>());
  return gens;
}

std::vector<uint64_t> GenerationChain::RecoveryOrder() const {
  std::vector<uint64_t> gens = List();
  if (latest_ == LatestForm::kNone) return gens;
  File file;
  if (!File::Open(dir_ + "/LATEST", /*create=*/false, &file).ok()) {
    return gens;
  }
  const uint64_t size = file.Size();
  if (size == 0 || size > kMaxLatestBytes) return gens;
  std::string text(size, '\0');
  if (!file.ReadAt(0, text.data(), size).ok()) return gens;
  // Tolerate a trailing newline from a hand edit.
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  uint64_t hint = 0;
  const bool parsed = latest_ == LatestForm::kName
                          ? Parse(text, &hint)
                          : ParseDigits(text, 0, text.size(), &hint);
  if (!parsed) return gens;
  auto it = std::find(gens.begin(), gens.end(), hint);
  if (it != gens.end()) std::rotate(gens.begin(), it, it + 1);
  return gens;
}

Status GenerationChain::Publish(uint64_t gen, bool sync) const {
  if (latest_ == LatestForm::kNone) return Status::Ok();
  const std::string value =
      latest_ == LatestForm::kName ? Name(gen) : std::to_string(gen);
  const std::string latest = dir_ + "/LATEST";
  const std::string tmp = latest + ".tmp";
  File file;
  Status s = File::Open(tmp, /*create=*/true, &file);
  if (!s.ok()) return s;
  s = file.WriteAt(0, value.data(), value.size());
  if (!s.ok()) return s;
  if (sync) {
    s = file.Sync();
    if (!s.ok()) return s;
  }
  s = file.Close();
  if (!s.ok()) return s;
  // rename alone is not durable across power loss: fsync the parent too.
  s = RenameFile(tmp, latest);
  if (!s.ok() || !sync) return s;
  return FsyncDir(dir_);
}

Status GenerationChain::Walk(
    const std::function<Status(uint64_t)>& load) const {
  const std::vector<uint64_t> order = RecoveryOrder();
  const std::string what = prefix_ + "*" + suffix_;
  if (order.empty()) {
    return Status::NotFound("no " + what + " generation in " + dir_);
  }
  Status last;
  for (uint64_t gen : order) {
    last = load(gen);
    if (last.ok()) return last;
  }
  if (last.code() != Status::Code::kCorruption) return last;
  return Status::Corruption("no valid " + what + " generation in " + dir_ +
                            " (last error: " + last.message() + ")");
}

Status GenerationChain::Prune(const std::set<uint64_t>& keep) const {
  Status first_error;
  for (uint64_t gen : List()) {
    if (keep.count(gen) != 0) continue;
    const Status s = RemoveFileIfExists(Path(gen));
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace cpr
