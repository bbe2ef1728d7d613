// Byte-level encoding for the durable on-disk format: a little-endian
// append-only writer, a bounds-checked reader that turns every overrun
// or malformed field into a typed kCorruption status (never UB), and
// the CRC-32 the snapshot sections and WAL records are framed with.
// Fixed-width fields are copied with memcpy in host byte order, and the
// build refuses a big-endian target at compile time, so the bytes are
// little-endian and identical across compilers and optimization levels
// — the cross-compiler CI leg holds this by construction.
#ifndef SQOPT_PERSIST_SERDE_H_
#define SQOPT_PERSIST_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"
#include "types/value.h"

namespace sqopt::persist {

static_assert(std::endian::native == std::endian::little,
              "persist/serde.h writes host-order fields; the format is "
              "little-endian");

// CRC-32 (IEEE 802.3 polynomial, reflected) of `len` bytes. `seed`
// chains partial computations: Crc32(b, Crc32(a)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// The bytes ByteWriter::PutValue writes for `v`.
size_t EncodedSize(const Value& v);
// Writes `v` exactly as PutValue would into `out`, which must have room
// for EncodedSize(v) bytes; returns the end of what was written.
char* EncodeValue(const Value& v, char* out);

// Appends little-endian fixed-width fields to an in-memory buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI32(int32_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(v); }
  void PutF64(double v) { PutFixed(v); }  // IEEE-754 bit pattern as u64
  void PutString(std::string_view s);     // u32 length + raw bytes
  void PutValue(const Value& v) {         // u8 type tag + payload
    EncodeValue(v, Extend(EncodedSize(v)));
  }
  // Raw bytes, no length prefix (section framing carries its own).
  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }

  // Grows the buffer by `n` bytes for the caller to fill in place; the
  // pointer is valid until the next Put or Extend.
  char* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  // Overwrites the u32 at `offset` (written earlier, e.g. a reserved
  // length field) with `v`.
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

// Consumes a byte range front to back. Every accessor bounds-checks and
// returns kCorruption instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8() { return Fixed<uint8_t>(); }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  Result<int32_t> I32() { return Fixed<int32_t>(); }
  Result<int64_t> I64() { return Fixed<int64_t>(); }
  Result<double> F64() { return Fixed<double>(); }
  // Rejects lengths larger than the remaining bytes, so a corrupt
  // length field can never trigger a huge allocation.
  Result<std::string> String();
  Result<Value> ReadValue();
  // ReadValue for hot loops, without a Result per value: false when
  // the value is truncated or its tag unknown, with the reader left at
  // the value's first byte so ReadValue can name the fault.
  bool TryReadValue(Value* out);
  // `n` raw bytes, zero-copy view into the underlying buffer.
  Result<std::string_view> Raw(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  // Caps a deserialized element count by the bytes actually left:
  // every encoded element consumes at least `min_bytes` (>= 1), so a
  // larger count is corrupt and will fail a bounds-checked read soon
  // anyway — but reserve()ing it first would abort the process on
  // std::length_error instead of surfacing the typed kCorruption this
  // module promises. Use for every reserve() fed by untrusted input.
  size_t CappedCount(uint64_t n, size_t min_bytes = 1) const {
    const uint64_t cap = remaining() / (min_bytes == 0 ? 1 : min_bytes);
    return static_cast<size_t>(n < cap ? n : cap);
  }

 private:
  Status Need(size_t n);
  // Reads a fixed-width field; false (nothing consumed) when fewer than
  // sizeof(T) bytes remain.
  template <typename T>
  bool TryFixed(T* out) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  template <typename T>
  Result<T> Fixed() {
    T v{};
    if (!TryFixed(&v)) return Need(sizeof(T));
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace sqopt::persist

#endif  // SQOPT_PERSIST_SERDE_H_
