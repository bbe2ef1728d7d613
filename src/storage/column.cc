#include "storage/column.h"

#include <algorithm>

namespace sqopt {

namespace {

bool FitsEncoding(const Value& v, ColumnEncoding enc) {
  switch (enc) {
    case ColumnEncoding::kInt64:
      return v.type() == ValueType::kInt;
    case ColumnEncoding::kFloat64:
      return v.type() == ValueType::kDouble;
    case ColumnEncoding::kGeneric:
      return true;
  }
  return false;
}

ColumnEncoding FastEncodingFor(ValueType declared) {
  switch (declared) {
    case ValueType::kInt:
      return ColumnEncoding::kInt64;
    case ValueType::kDouble:
      return ColumnEncoding::kFloat64;
    default:
      return ColumnEncoding::kGeneric;
  }
}

}  // namespace

ColumnChunk::ColumnChunk(ColumnEncoding enc, size_t capacity,
                         OwnerStamp owner, int64_t written)
    : owner(owner), frontier(written), enc_(enc) {
  switch (enc_) {
    case ColumnEncoding::kInt64:
      i64_.resize(capacity);
      break;
    case ColumnEncoding::kFloat64:
      f64_.resize(capacity);
      break;
    case ColumnEncoding::kGeneric:
      generic_.resize(capacity);
      break;
  }
}

ColumnChunk::ColumnChunk(ValueType declared, size_t capacity,
                         OwnerStamp owner)
    : ColumnChunk(FastEncodingFor(declared), capacity, owner, 0) {}

std::shared_ptr<ColumnChunk> ColumnChunk::FromSlice(const ColumnData& src,
                                                    size_t begin, size_t end,
                                                    ValueType declared,
                                                    size_t capacity,
                                                    OwnerStamp owner) {
  const size_t n = end - begin;
  ColumnEncoding enc = src.encoding;
  // Re-promote a generic slice whose values all match the declared
  // type: a mixed extent serializes generically, but segments that are
  // actually homogeneous should scan fast after restore.
  if (enc == ColumnEncoding::kGeneric) {
    const ColumnEncoding fast = FastEncodingFor(declared);
    enc = fast;
    for (size_t i = begin; i < end && enc != ColumnEncoding::kGeneric; ++i) {
      if (!FitsEncoding(src.generic[i], fast)) enc = ColumnEncoding::kGeneric;
    }
  }
  std::shared_ptr<ColumnChunk> chunk(
      new ColumnChunk(enc, capacity, owner, static_cast<int64_t>(n)));
  for (size_t i = 0; i < n; ++i) {
    switch (src.encoding) {
      case ColumnEncoding::kInt64:
        chunk->i64_[i] = src.i64[begin + i];
        break;
      case ColumnEncoding::kFloat64:
        chunk->f64_[i] = src.f64[begin + i];
        break;
      case ColumnEncoding::kGeneric:
        chunk->Set(i, src.generic[begin + i]);
        break;
    }
  }
  return chunk;
}

std::shared_ptr<ColumnChunk> ColumnChunk::CopyPrefix(size_t n,
                                                     OwnerStamp owner) const {
  std::shared_ptr<ColumnChunk> copy(new ColumnChunk(
      enc_, capacity(), owner, static_cast<int64_t>(n)));
  switch (enc_) {
    case ColumnEncoding::kInt64:
      std::copy_n(i64_.begin(), n, copy->i64_.begin());
      break;
    case ColumnEncoding::kFloat64:
      std::copy_n(f64_.begin(), n, copy->f64_.begin());
      break;
    case ColumnEncoding::kGeneric:
      std::copy_n(generic_.begin(), n, copy->generic_.begin());
      break;
  }
  return copy;
}

size_t ColumnChunk::capacity() const {
  switch (enc_) {
    case ColumnEncoding::kInt64:
      return i64_.size();
    case ColumnEncoding::kFloat64:
      return f64_.size();
    case ColumnEncoding::kGeneric:
      return generic_.size();
  }
  return 0;
}

bool ColumnChunk::Fits(const Value& v) const { return FitsEncoding(v, enc_); }

void ColumnChunk::Demote() {
  std::vector<Value> values;
  values.reserve(capacity());
  switch (enc_) {
    case ColumnEncoding::kInt64:
      for (int64_t v : i64_) values.push_back(Value::Int(v));
      i64_.clear();
      i64_.shrink_to_fit();
      break;
    case ColumnEncoding::kFloat64:
      for (double v : f64_) values.push_back(Value::Double(v));
      f64_.clear();
      f64_.shrink_to_fit();
      break;
    case ColumnEncoding::kGeneric:
      return;
  }
  enc_ = ColumnEncoding::kGeneric;
  generic_ = std::move(values);
}

void ColumnChunk::Set(size_t i, Value v) {
  if (!FitsEncoding(v, enc_)) Demote();
  switch (enc_) {
    case ColumnEncoding::kInt64:
      i64_[i] = v.int_value();
      break;
    case ColumnEncoding::kFloat64:
      f64_[i] = v.double_value();
      break;
    case ColumnEncoding::kGeneric:
      generic_[i] = std::move(v);
      break;
  }
}

Value ColumnChunk::Get(size_t i) const {
  switch (enc_) {
    case ColumnEncoding::kInt64:
      return Value::Int(i64_[i]);
    case ColumnEncoding::kFloat64:
      return Value::Double(f64_[i]);
    case ColumnEncoding::kGeneric:
      return generic_[i];
  }
  return Value::Null();
}

}  // namespace sqopt
