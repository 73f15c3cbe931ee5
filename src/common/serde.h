// Byte-buffer serialization for log records and wire messages.
//
// Records written into FaRM ring-buffer logs travel through (simulated)
// one-sided RDMA writes, so they must be flat byte sequences. BufWriter and
// BufReader provide bounds-checked little-endian packing; SharedBytes lets
// many parsed records point at one copy of their bytes.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace farm {

class BufWriter {
 public:
  BufWriter() = default;
  // Reserves `capacity` bytes up front: a writer sized exactly never grows.
  explicit BufWriter(size_t capacity) { buf_.reserve(capacity); }

  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU16(uint16_t v) { Append(&v, 2); }
  void PutU32(uint32_t v) { Append(&v, 4); }
  void PutU64(uint64_t v) { Append(&v, 8); }
  void PutBytes(const void* data, size_t len) {
    PutU32(static_cast<uint32_t>(len));
    Append(data, len);
  }
  void PutString(const std::string& s) { PutBytes(s.data(), s.size()); }

  // Raw append without a length prefix.
  void Append(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class BufReader {
 public:
  BufReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit BufReader(const std::vector<uint8_t>& buf) : BufReader(buf.data(), buf.size()) {}

  uint8_t GetU8() { return Get<uint8_t>(); }
  uint16_t GetU16() { return Get<uint16_t>(); }
  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }

  std::vector<uint8_t> GetBytes() {
    uint32_t n = GetU32();
    FARM_CHECK(pos_ + n <= len_) << "BufReader overrun";
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  std::string GetString() {
    auto b = GetBytes();
    return std::string(b.begin(), b.end());
  }

  // Skips `len` bytes; returns their offset.
  size_t Skip(size_t len) {
    FARM_CHECK(pos_ + len <= len_) << "BufReader overrun";
    pos_ += len;
    return pos_ - len;
  }

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  template <typename T>
  T Get() {
    FARM_CHECK(pos_ + sizeof(T) <= len_) << "BufReader overrun";
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

// An immutable, reference-counted byte slice: copies share the bytes, so a
// write value reaches every record that carries it, and a parsed record's
// values point into the one buffer it was parsed from, without byte copies.
class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(std::vector<uint8_t> bytes)
      : buf_(std::make_shared<const std::vector<uint8_t>>(std::move(bytes))),
        len_(static_cast<uint32_t>(buf_->size())) {}

  const uint8_t* data() const { return buf_ == nullptr ? nullptr : buf_->data() + off_; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  // The bytes [off, off + len) of this slice, sharing its buffer.
  SharedBytes Sub(size_t off, size_t len) const {
    FARM_CHECK(off + len <= len_) << "SharedBytes::Sub out of range";
    SharedBytes s = *this;
    s.off_ += static_cast<uint32_t>(off);
    s.len_ = static_cast<uint32_t>(len);
    return s;
  }

  std::vector<uint8_t> ToVector() const { return std::vector<uint8_t>(data(), data() + len_); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.len_ == b.len_ && (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

 private:
  std::shared_ptr<const std::vector<uint8_t>> buf_;
  uint32_t off_ = 0;
  uint32_t len_ = 0;
};

}  // namespace farm

#endif  // SRC_COMMON_SERDE_H_
