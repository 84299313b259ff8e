// InternTable — one live object per distinct value, shared by its holders.
//
// The nodes of a network hold the same file's bytes and the same file's
// certificate many times over: every replica store, every cache on the
// lookup path and the owner. A table keeps one object per distinct value and
// hands out shared handles onto it, the way Overlay's NodeInternTable keeps
// each node descriptor once (DESIGN §15). ContentTable (cached bytes) and
// CertificateTable (file certificates) are both this table.
//
// Objects are filed under a key the caller derives from what names them (a
// content hash, a fileId), but a hit also needs the caller's full equality
// test, so two values under one key share an object only when they are
// equal. The table holds no strong reference: the last handle onto an object
// frees it and drops its slot, and a handle that outlives the table frees its
// object and nothing else. The summed weight of the live objects is a gauge.
// Single-threaded, like the network that owns the table.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>

#include "src/obs/metrics.h"

namespace past {

template <typename T>
class InternTable {
 public:
  using Handle = std::shared_ptr<const T>;

  // `resident` sums weight(object) over the live objects (and over every
  // other table that shares the gauge).
  InternTable(Gauge* resident, double (*weight)(const T&))
      : index_(std::make_shared<Index>(resident, weight)) {}
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  // A handle onto a live object filed under `key` for which `equal(object)`
  // holds, or else onto the new object `make()` returns, filed under `key`.
  template <typename Equal, typename Make>
  Handle Intern(size_t key, Equal equal, Make make) {
    auto [first, last] = index_->slots.equal_range(key);
    for (auto it = first; it != last; ++it) {
      if (Handle live = it->second.handle.lock(); live != nullptr && equal(*live)) {
        return live;
      }
    }
    Handle fresh(new T(make()), [index = std::weak_ptr<Index>(index_), key](const T* object) {
      if (std::shared_ptr<Index> live_index = index.lock()) {
        live_index->Release(key, object);
      }
      delete object;
    });
    index_->slots.emplace(key, Slot{fresh.get(), fresh});
    index_->resident->Add(index_->weight(*fresh));
    return fresh;
  }

  // Live objects.
  size_t size() const { return index_->slots.size(); }

 private:
  struct Slot {
    const T* object;  // names the object to its release hook
    std::weak_ptr<const T> handle;
  };

  // Shared only with the release hooks, which find it gone once the table is.
  struct Index {
    Index(Gauge* resident_gauge, double (*weight_fn)(const T&))
        : resident(resident_gauge), weight(weight_fn) {}

    // Drops the slot of an object its last handle is about to free.
    void Release(size_t key, const T* object) {
      auto [first, last] = slots.equal_range(key);
      for (auto it = first; it != last; ++it) {
        if (it->second.object == object) {
          slots.erase(it);
          resident->Sub(weight(*object));
          return;
        }
      }
    }

    std::unordered_multimap<size_t, Slot> slots;
    Gauge* resident;
    double (*weight)(const T&);
  };

  std::shared_ptr<Index> index_;
};

}  // namespace past
