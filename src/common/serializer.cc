#include "src/common/serializer.h"

#include <cstring>

namespace past {

void Writer::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v));
  U8(static_cast<uint8_t>(v >> 8));
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    U8(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    U8(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Id128(const U128& v) {
  auto bytes = v.ToBytes();
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void Writer::Id160(const U160& v) {
  const auto& bytes = v.bytes();
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void Writer::Blob(ByteSpan data) {
  U32(static_cast<uint32_t>(data.size()));
  out_.insert(out_.end(), data.begin(), data.end());
}

void Writer::Str(std::string_view s) {
  Blob(ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

bool Reader::Take(size_t n, const uint8_t** p) {
  if (data_.size() - pos_ < n) {
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool Reader::U8(uint8_t* v) {
  const uint8_t* p;
  if (!Take(1, &p)) {
    return false;
  }
  *v = *p;
  return true;
}

bool Reader::U16(uint16_t* v) {
  const uint8_t* p;
  if (!Take(2, &p)) {
    return false;
  }
  *v = static_cast<uint16_t>(p[0] | (p[1] << 8));
  return true;
}

bool Reader::U32(uint32_t* v) {
  const uint8_t* p;
  if (!Take(4, &p)) {
    return false;
  }
  *v = 0;
  for (int i = 3; i >= 0; --i) {
    *v = (*v << 8) | p[i];
  }
  return true;
}

bool Reader::U64(uint64_t* v) {
  const uint8_t* p;
  if (!Take(8, &p)) {
    return false;
  }
  *v = 0;
  for (int i = 7; i >= 0; --i) {
    *v = (*v << 8) | p[i];
  }
  return true;
}

bool Reader::I64(int64_t* v) {
  uint64_t raw;
  if (!U64(&raw)) {
    return false;
  }
  *v = static_cast<int64_t>(raw);
  return true;
}

bool Reader::F64(double* v) {
  uint64_t bits;
  if (!U64(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool Reader::Bool(bool* v) {
  uint8_t raw;
  if (!U8(&raw)) {
    return false;
  }
  *v = raw != 0;
  return true;
}

bool Reader::Id128(U128* v) {
  const uint8_t* p;
  if (!Take(16, &p)) {
    return false;
  }
  *v = U128::FromBytes(ByteSpan(p, 16));
  return true;
}

bool Reader::Id160(U160* v) {
  const uint8_t* p;
  if (!Take(U160::kBytes, &p)) {
    return false;
  }
  *v = U160::FromBytes(ByteSpan(p, U160::kBytes));
  return true;
}

bool Reader::Blob(ByteSpan* out) {
  uint32_t len = 0;
  const uint8_t* p = nullptr;
  if (!U32(&len) || !Take(len, &p)) {
    return false;
  }
  *out = ByteSpan(p, len);
  return true;
}

bool Reader::Blob(Bytes* out) {
  ByteSpan view;
  if (!Blob(&view)) {
    return false;
  }
  out->assign(view.begin(), view.end());
  return true;
}

bool Reader::Str(std::string* out) {
  Bytes raw;
  if (!Blob(&raw)) {
    return false;
  }
  out->assign(raw.begin(), raw.end());
  return true;
}

}  // namespace past
