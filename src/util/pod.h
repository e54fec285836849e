#ifndef CPR_UTIL_POD_H_
#define CPR_UTIL_POD_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cpr {

// The one byte codec for checkpoint payloads, manifests, certifier files,
// WAL records and wire frames: fixed-width values in host byte order
// (little-endian on every supported target), no padding, no tags.

// Appends the bytes of `v`.
template <typename T>
inline void PutPod(std::vector<char>* out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

// Bounds-checked reader over a byte range it does not own. Every read
// returns false (and consumes nothing) when too few bytes remain.
class PodReader {
 public:
  PodReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit PodReader(std::string_view data)
      : PodReader(data.data(), data.size()) {}
  explicit PodReader(const std::vector<char>& data)
      : PodReader(data.data(), data.size()) {}

  template <typename T>
  bool Pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  // Consumes exactly `n` bytes as a pointer into the range.
  bool Skip(size_t n, const char** out) {
    if (size_ - pos_ < n) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }

  // Consumes exactly `n` bytes into `out`.
  bool Bytes(size_t n, std::vector<char>* out) {
    const char* p = nullptr;
    if (!Skip(n, &p)) return false;
    out->assign(p, p + n);
    return true;
  }

  // Consumes exactly `n` bytes as a view into the range.
  bool View(size_t n, std::string_view* out) {
    const char* p = nullptr;
    if (!Skip(n, &p)) return false;
    *out = std::string_view(p, n);
    return true;
  }

  // Consumes all remaining bytes.
  void Rest(std::vector<char>* out) {
    out->assign(data_ + pos_, data_ + size_);
    pos_ = size_;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace cpr

#endif  // CPR_UTIL_POD_H_
