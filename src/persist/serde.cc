#include "persist/serde.h"

#include <array>
#include <cstring>

namespace sqopt::persist {

namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table,
// table[k][b] extends it by k extra zero bytes, letting the hot loop
// fold 8 input bytes per iteration (snapshot sections run to megabytes
// — the cold-open path checksums the whole file — and every wire frame
// is checksummed on both ends).
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < tables.size(); ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const CrcTables kTables = MakeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  while (len >= 8) {
    // Little-endian loads (serde.h asserts the host order).
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = kTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

size_t EncodedSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 2;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 9;
    case ValueType::kString:
      return 5 + v.string_value().size();
    case ValueType::kRef:
      return 13;
  }
  return 1;
}

namespace {

template <typename T>
char* Store(char* out, T v) {
  std::memcpy(out, &v, sizeof(T));
  return out + sizeof(T);
}

}  // namespace

char* EncodeValue(const Value& v, char* out) {
  const ValueType type = v.type();
  *out++ = static_cast<char>(type);
  switch (type) {
    case ValueType::kNull:
      return out;
    case ValueType::kBool:
      *out++ = v.bool_value() ? 1 : 0;
      return out;
    case ValueType::kInt:
      return Store(out, v.int_value());
    case ValueType::kDouble:
      return Store(out, v.double_value());
    case ValueType::kString: {
      const std::string& s = v.string_value();
      out = Store(out, static_cast<uint32_t>(s.size()));
      std::memcpy(out, s.data(), s.size());
      return out + s.size();
    }
    case ValueType::kRef:
      out = Store(out, v.ref_value().class_id);
      return Store(out, v.ref_value().row);
  }
  return out;
}

Status ByteReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Corruption("serialized data truncated: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
  }
  return Status::OK();
}

Result<std::string> ByteReader::String() {
  SQOPT_ASSIGN_OR_RETURN(uint32_t len, U32());
  SQOPT_RETURN_IF_ERROR(Need(len));
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Result<std::string_view> ByteReader::Raw(size_t n) {
  SQOPT_RETURN_IF_ERROR(Need(n));
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

bool ByteReader::TryReadValue(Value* out) {
  const size_t start = pos_;
  uint8_t tag = 0;
  if (!TryFixed(&tag)) return false;
  bool ok = true;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      break;
    case ValueType::kBool: {
      uint8_t b = 0;
      ok = TryFixed(&b);
      if (ok) *out = Value::Bool(b != 0);
      break;
    }
    case ValueType::kInt: {
      int64_t v = 0;
      ok = TryFixed(&v);
      if (ok) *out = Value::Int(v);
      break;
    }
    case ValueType::kDouble: {
      double v = 0;
      ok = TryFixed(&v);
      if (ok) *out = Value::Double(v);
      break;
    }
    case ValueType::kString: {
      uint32_t len = 0;
      ok = TryFixed(&len) && remaining() >= len;
      if (ok) {
        *out = Value::String(std::string(data_.substr(pos_, len)));
        pos_ += len;
      }
      break;
    }
    case ValueType::kRef: {
      Oid oid;
      ok = TryFixed(&oid.class_id) && TryFixed(&oid.row);
      if (ok) *out = Value::Ref(oid);
      break;
    }
    default:
      ok = false;
      break;
  }
  if (!ok) pos_ = start;
  return ok;
}

Result<Value> ByteReader::ReadValue() {
  Value v;
  if (TryReadValue(&v)) return v;
  if (AtEnd()) return Need(1);
  const auto tag = static_cast<uint8_t>(data_[pos_]);
  if (tag > static_cast<uint8_t>(ValueType::kRef)) {
    return Status::Corruption("unknown value type tag " +
                              std::to_string(static_cast<int>(tag)));
  }
  return Status::Corruption("serialized data truncated: " +
                            std::to_string(remaining()) +
                            " bytes left for a " +
                            ValueTypeName(static_cast<ValueType>(tag)) +
                            " value");
}

}  // namespace sqopt::persist
