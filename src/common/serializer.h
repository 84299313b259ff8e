// Bounds-checked binary serialization.
//
// Every wire message in the Pastry/PAST protocols encodes to bytes through
// Writer and decodes through Reader. Reader never reads past the end of the
// buffer: each accessor returns false on truncation, and decoding code
// propagates that as StatusCode::kDecodeError. Integers are little-endian.
//
// Wire records state their layout once, as an ordered field list:
//
//   struct Foo {
//     uint32_t a = 0;
//     Bytes b;
//     static auto Fields(auto& m) { return std::tie(m.a, m.b); }
//   };
//
// and the Write/Read/WireSize overloads below derive the encoder, the
// decoder, the record's exact encoded size (so every encode allocates once)
// and its minimum encoded size from that list. A field type with its own
// layout (NodeDescriptor, RsaPublicKey, ...) gets its overloads, or its own
// field list, beside its type; argument-dependent lookup finds them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/u128.h"
#include "src/common/u160.h"

namespace past {

class Writer {
 public:
  Writer() = default;

  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Id128(const U128& v);
  void Id160(const U160& v);
  // Length-prefixed (u32) byte string.
  void Blob(ByteSpan data);
  void Str(std::string_view s);

  // Allocates room for `n` more bytes up front.
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }

  const Bytes& bytes() const { return out_; }
  Bytes Take() { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  [[nodiscard]] bool U8(uint8_t* v);
  [[nodiscard]] bool U16(uint16_t* v);
  [[nodiscard]] bool U32(uint32_t* v);
  [[nodiscard]] bool U64(uint64_t* v);
  [[nodiscard]] bool I64(int64_t* v);
  [[nodiscard]] bool F64(double* v);
  [[nodiscard]] bool Bool(bool* v);
  [[nodiscard]] bool Id128(U128* v);
  [[nodiscard]] bool Id160(U160* v);
  [[nodiscard]] bool Blob(Bytes* out);
  // A view into the buffer this Reader reads, valid as long as that buffer.
  [[nodiscard]] bool Blob(ByteSpan* out);
  [[nodiscard]] bool Str(std::string* out);

  // True when the whole buffer has been consumed; decoders should require
  // this to reject trailing garbage.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Take(size_t n, const uint8_t** p);

  ByteSpan data_;
  size_t pos_ = 0;
};

// --- field codec -------------------------------------------------------------

template <typename T>
concept HasFields = requires(T& t) { T::Fields(t); };

inline void Write(Writer* w, uint8_t v) { w->U8(v); }
inline void Write(Writer* w, uint16_t v) { w->U16(v); }
inline void Write(Writer* w, uint32_t v) { w->U32(v); }
inline void Write(Writer* w, uint64_t v) { w->U64(v); }
inline void Write(Writer* w, int64_t v) { w->I64(v); }
inline void Write(Writer* w, bool v) { w->Bool(v); }
inline void Write(Writer* w, double v) { w->F64(v); }
inline void Write(Writer* w, const U128& v) { w->Id128(v); }
inline void Write(Writer* w, const U160& v) { w->Id160(v); }
inline void Write(Writer* w, ByteSpan v) { w->Blob(v); }
inline void Write(Writer* w, const Bytes& v) { w->Blob(v); }
inline void Write(Writer* w, const std::string& v) { w->Str(v); }

[[nodiscard]] inline bool Read(Reader* r, uint8_t* v) { return r->U8(v); }
[[nodiscard]] inline bool Read(Reader* r, uint16_t* v) { return r->U16(v); }
[[nodiscard]] inline bool Read(Reader* r, uint32_t* v) { return r->U32(v); }
[[nodiscard]] inline bool Read(Reader* r, uint64_t* v) { return r->U64(v); }
[[nodiscard]] inline bool Read(Reader* r, int64_t* v) { return r->I64(v); }
[[nodiscard]] inline bool Read(Reader* r, bool* v) { return r->Bool(v); }
[[nodiscard]] inline bool Read(Reader* r, double* v) { return r->F64(v); }
[[nodiscard]] inline bool Read(Reader* r, U128* v) { return r->Id128(v); }
[[nodiscard]] inline bool Read(Reader* r, U160* v) { return r->Id160(v); }
[[nodiscard]] inline bool Read(Reader* r, ByteSpan* v) { return r->Blob(v); }
[[nodiscard]] inline bool Read(Reader* r, Bytes* v) { return r->Blob(v); }
[[nodiscard]] inline bool Read(Reader* r, std::string* v) { return r->Str(v); }

// An enum travels as its underlying integer. Its wire values are 0 ..
// EnumCount(E{}) - 1, where EnumCount is declared beside the enum; any other
// value fails the read.
template <typename E>
  requires std::is_enum_v<E>
void Write(Writer* w, E v) {
  Write(w, static_cast<std::underlying_type_t<E>>(v));
}

template <typename E>
  requires std::is_enum_v<E>
[[nodiscard]] bool Read(Reader* r, E* v) {
  std::underlying_type_t<E> raw{};
  if (!Read(r, &raw) || raw >= EnumCount(E{})) {
    return false;
  }
  *v = static_cast<E>(raw);
  return true;
}

// The bytes Write appends for a value. Scalars and blobs here; lists,
// optionals and records below.
template <typename T>
  requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
constexpr size_t WireSize(T) {
  return sizeof(T);
}
inline size_t WireSize(const U128&) { return 16; }
inline size_t WireSize(const U160&) { return U160::kBytes; }
inline size_t WireSize(ByteSpan v) { return 4 + v.size(); }
inline size_t WireSize(const Bytes& v) { return 4 + v.size(); }
inline size_t WireSize(const std::string& v) { return 4 + v.size(); }

template <typename Tuple>
void WriteFields(Writer* w, const Tuple& fields) {
  std::apply([w](const auto&... f) { (Write(w, f), ...); }, fields);
}

// Reads the fields in order, stopping at the first that fails.
template <typename Tuple>
[[nodiscard]] bool ReadFields(Reader* r, const Tuple& fields) {
  return std::apply([r](auto&... f) { return (Read(r, &f) && ...); }, fields);
}

template <typename T>
size_t WireSize(const std::vector<T>& v);
template <typename T>
size_t WireSize(const std::optional<T>& v);

template <typename Tuple>
size_t FieldsWireSize(const Tuple& fields) {
  return std::apply([](const auto&... f) { return (size_t{0} + ... + WireSize(f)); },
                    fields);
}

template <HasFields T>
void Write(Writer* w, const T& v) {
  WriteFields(w, T::Fields(v));
}

template <HasFields T>
[[nodiscard]] bool Read(Reader* r, T* v) {
  return ReadFields(r, T::Fields(*v));
}

template <HasFields T>
size_t WireSize(const T& v) {
  return FieldsWireSize(T::Fields(v));
}

template <typename T>
inline constexpr bool kIsList = false;
template <typename T>
inline constexpr bool kIsList<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

// The fewest bytes a T encodes to: what a list's count is checked against.
template <typename T>
constexpr size_t MinWireSize();

template <typename Tuple, size_t... I>
constexpr size_t MinTupleSize(std::index_sequence<I...>) {
  return (size_t{0} + ... +
          MinWireSize<std::remove_cvref_t<std::tuple_element_t<I, Tuple>>>());
}

template <typename T>
constexpr size_t MinWireSize() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, U128>) {
    return 16;
  } else if constexpr (std::is_same_v<T, U160>) {
    return U160::kBytes;
  } else if constexpr (kIsList<T> || std::is_same_v<T, ByteSpan> ||
                       std::is_same_v<T, std::string>) {
    return 4;  // the length or count
  } else if constexpr (kIsOptional<T>) {
    return 1;  // the presence flag
  } else {
    static_assert(HasFields<T>, "a list element needs a field list");
    using Tuple = decltype(T::Fields(std::declval<T&>()));
    return MinTupleSize<Tuple>(std::make_index_sequence<std::tuple_size_v<Tuple>>());
  }
}

// A list: its u32 count, then each element.
template <typename T>
void Write(Writer* w, const std::vector<T>& v) {
  w->U32(static_cast<uint32_t>(v.size()));
  for (const T& e : v) {
    Write(w, e);
  }
}

template <typename T>
size_t WireSize(const std::vector<T>& v) {
  size_t size = 4;
  for (const T& e : v) {
    size += WireSize(e);
  }
  return size;
}

// The one guard against absurd counts: a count whose elements could not fit
// in what remains, even at their minimum size, fails before allocating.
template <typename T>
[[nodiscard]] bool Read(Reader* r, std::vector<T>* v) {
  uint32_t n = 0;
  if (!r->U32(&n) || static_cast<size_t>(n) * MinWireSize<T>() > r->remaining()) {
    return false;
  }
  v->resize(n);
  for (T& e : *v) {
    if (!Read(r, &e)) {
      return false;
    }
  }
  return true;
}

// An optional: a presence flag, then the value when present.
template <typename T>
void Write(Writer* w, const std::optional<T>& v) {
  w->Bool(v.has_value());
  if (v.has_value()) {
    Write(w, *v);
  }
}

template <typename T>
[[nodiscard]] bool Read(Reader* r, std::optional<T>* v) {
  bool present = false;
  if (!r->Bool(&present)) {
    return false;
  }
  if (!present) {
    v->reset();
    return true;
  }
  return Read(r, &v->emplace());
}

template <typename T>
size_t WireSize(const std::optional<T>& v) {
  return 1 + (v.has_value() ? WireSize(*v) : 0);
}

// A shared immutable record (an interned certificate) travels as the record
// it points to; a read fills a fresh one.
template <typename T>
void Write(Writer* w, const std::shared_ptr<const T>& v) {
  Write(w, *v);
}

template <typename T>
[[nodiscard]] bool Read(Reader* r, std::shared_ptr<const T>* v) {
  auto fresh = std::make_shared<T>();
  if (!Read(r, fresh.get())) {
    return false;
  }
  *v = std::move(fresh);
  return true;
}

template <typename T>
size_t WireSize(const std::shared_ptr<const T>& v) {
  return WireSize(*v);
}

// A record carried inside another as a length-prefixed blob, written in
// place: the bytes of Write(w, EncodeRecord(record)) without staging the
// record in a buffer of its own.
template <HasFields T>
struct Nested {
  const T& record;
};

template <typename T>
void Write(Writer* w, const Nested<T>& v) {
  w->U32(static_cast<uint32_t>(WireSize(v.record)));
  Write(w, v.record);
}

template <typename T>
size_t WireSize(const Nested<T>& v) {
  return 4 + WireSize(v.record);
}

// A whole buffer holding one record, allocated once at its exact size.
template <typename T>
Bytes EncodeRecord(const T& v) {
  Writer w;
  w.Reserve(WireSize(v));
  Write(&w, v);
  return w.Take();
}

// Decodes one record and requires the buffer to be fully consumed.
template <typename T>
[[nodiscard]] bool DecodeRecord(ByteSpan data, T* v) {
  Reader r(data);
  return Read(&r, v) && r.AtEnd();
}

// --- record lists ------------------------------------------------------------

// A wire layer's records, each bound once to the type code it travels under:
// CodeOf<R>::value reads that code from the record itself (a Pastry message's
// kType, a PAST payload's kOp), and no two records in a list may share one.
// Visit is the layer's one decode-and-dispatch path: the receiving nodes and
// the fuzz drivers hand it a code, the body and a handler, an overload set
// naming the records that one receive path takes.
template <template <typename> class CodeOf, typename... Records>
struct RecordList {
  // The codes in list order.
  static constexpr std::array kCodes{CodeOf<Records>::value...};
  using Code = typename decltype(kCodes)::value_type;

  static constexpr bool Contains(Code code) { return ((code == CodeOf<Records>::value) || ...); }

  // Decodes the rest of `r`, which must be consumed whole, as the record
  // `code` names and calls handler(std::move(record)). Returns false without
  // decoding when no record has `code` or `handler` takes no such record; an
  // undecodable body is dropped and counts as visited.
  template <typename Handler>
  static bool Visit(Code code, Reader* r, Handler&& handler) {
    return ((code == CodeOf<Records>::value && VisitAs<Records>(r, handler)) || ...);
  }

 private:
  template <typename R, typename Handler>
  static bool VisitAs(Reader* r, Handler& handler) {
    if constexpr (std::is_invocable_v<Handler&, R&&>) {
      R record;
      if (Read(r, &record) && r->AtEnd()) {
        handler(std::move(record));
      }
      return true;
    } else {
      return false;
    }
  }

  static_assert(((std::ranges::count(kCodes, CodeOf<Records>::value) == 1) && ...),
                "two records in one list share a type code");
};

// A handler for RecordList::Visit built from lambdas, one per record taken:
// Overloaded{[&](const FooMsg& m) {...}, [&](BarMsg&& m) {...}}.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

// The member spellings of the codec, for records whose callers name them:
// EncodeTo/DecodeFrom inside an enclosing encoding, Encode/Decode for a
// record that fills a whole buffer. Derive as `struct Foo : WireRecord<Foo>`
// and give Foo its field list.
template <typename T>
struct WireRecord {
  void EncodeTo(Writer* w) const { Write(w, static_cast<const T&>(*this)); }
  [[nodiscard]] static bool DecodeFrom(Reader* r, T* out) { return Read(r, out); }
  Bytes Encode() const { return EncodeRecord(static_cast<const T&>(*this)); }
  [[nodiscard]] static bool Decode(ByteSpan data, T* out) { return DecodeRecord(data, out); }
};

}  // namespace past
