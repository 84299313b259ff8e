// Refcounted immutable byte buffer for zero-copy message delivery.
//
// Ownership rules:
//   - Construct once from a Bytes (moved in; the only allocation is the
//     shared control block + buffer, fused by make_shared).
//   - Copies are cheap handles onto the same buffer; the network's in-flight
//     delivery closure and every recipient of a multi-recipient send share
//     one allocation.
//   - The buffer is immutable after construction. Readers get a ByteSpan
//     view via span(); the view is valid as long as any handle is alive.
//   - A buffer owned elsewhere (an interned one, whose last handle drops
//     its table slot) is wrapped from its shared pointer.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/bytes.h"

namespace past {

class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(Bytes bytes)
      : buf_(std::make_shared<const Bytes>(std::move(bytes))) {}
  explicit SharedBytes(std::shared_ptr<const Bytes> buf) : buf_(std::move(buf)) {}

  // Copies `data` into a fresh buffer (for callers that only have a view).
  static SharedBytes Copy(ByteSpan data) {
    return SharedBytes(Bytes(data.begin(), data.end()));
  }

  const uint8_t* data() const { return buf_ ? buf_->data() : nullptr; }
  size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  ByteSpan span() const {
    return buf_ ? ByteSpan(buf_->data(), buf_->size()) : ByteSpan();
  }

  // Number of handles sharing the buffer (0 for an empty handle). Used by
  // tests to pin the zero-copy property.
  long use_count() const { return buf_.use_count(); }

  // Content equality with any byte sequence.
  friend bool operator==(const SharedBytes& a, ByteSpan b) {
    return std::ranges::equal(a.span(), b);
  }

 private:
  std::shared_ptr<const Bytes> buf_;
};

}  // namespace past
