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
//   - An index that shares buffers without owning them (the cache's
//     ContentTable) files a Weak reference to each, and learns through a
//     release hook when the last handle lets a buffer go.
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

  // Copies `data` into a fresh buffer (for callers that only have a view).
  static SharedBytes Copy(ByteSpan data) {
    return SharedBytes(Bytes(data.begin(), data.end()));
  }

  // Copies `data` into a fresh buffer whose last handle, just before freeing
  // it, calls `on_release(buffer)` with a view of the buffer. The hook runs
  // from whichever handle goes last, so it must not throw.
  template <typename OnRelease>
  static SharedBytes CopyWithReleaseHook(ByteSpan data, OnRelease on_release) {
    return SharedBytes(std::shared_ptr<const Bytes>(
        new Bytes(data.begin(), data.end()),
        [on_release = std::move(on_release)](const Bytes* buf) {
          on_release(ByteSpan(buf->data(), buf->size()));
          delete buf;
        }));
  }

  // Refers to a buffer without keeping it alive.
  class Weak {
   public:
    Weak() = default;
    explicit Weak(const SharedBytes& bytes) : buf_(bytes.buf_) {}
    // A handle onto the buffer while any handle still holds it; empty after.
    SharedBytes Lock() const { return SharedBytes(buf_.lock()); }

   private:
    std::weak_ptr<const Bytes> buf_;
  };

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
  explicit SharedBytes(std::shared_ptr<const Bytes> buf) : buf_(std::move(buf)) {}

  std::shared_ptr<const Bytes> buf_;
};

}  // namespace past
