// Discrete-event scheduler with a virtual clock.
//
// All protocol timing (message latency, keep-alive periods, failure timeouts)
// runs on this queue. Events at equal timestamps fire in scheduling order
// (sequence-number tie-break), which makes every simulation deterministic.
// Time is in integer microseconds.
//
// Storage layout: events live in a slab of pooled slots indexed by a binary
// heap of slot numbers. An EventId is (generation << 32) | slot_index; the
// generation is bumped every time a slot is released, so Cancel() on a stale
// id (already fired, already cancelled, or a recycled slot) is a cheap no-op
// that never grows auxiliary state. Cancellation is lazy: the slot is marked
// dead and its callback released immediately, and the heap entry is discarded
// when it surfaces at the top. Callbacks are stored in an EventFn with inline
// space for the capture sizes the simulator actually schedules, so the
// steady-state schedule/fire path performs no heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace past {

class LogHistogram;

using SimTime = int64_t;  // microseconds

constexpr SimTime kMicrosPerMilli = 1000;
constexpr SimTime kMicrosPerSecond = 1000 * 1000;

// Move-only callable of signature void(). Callables whose size fits
// kInlineSize (and that are nothrow-move-constructible) are stored inline;
// larger ones fall back to a single heap allocation. Unlike std::function,
// move-only captures (e.g. a moved-in SharedBytes) are supported.
class EventFn {
 public:
  // Sized for the network delivery closure (this + from + to + SharedBytes)
  // and the protocol timer closures, with headroom for one extra word.
  static constexpr size_t kInlineSize = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the held callable (releasing its captures) and becomes empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's storage and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      [](void* dst, void* src) {
        // Pointers are trivially destructible; just copy the pointer over.
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  // (generation << 32) | slot_index. Generations start at 1, so no valid id
  // is ever 0 — callers use 0 as the "no timer armed" sentinel.
  using EventId = uint64_t;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `when` (must be >= Now()).
  EventId At(SimTime when, EventFn fn);
  // Schedules `fn` after `delay` microseconds.
  EventId After(SimTime delay, EventFn fn);

  // Schedules `fn` in the *maintenance band*: at equal timestamps it fires
  // after every normally-scheduled event, regardless of the order the two
  // were scheduled in. Pastry's periodic timers (keep-alive tick, join
  // retry) go here, so a tick sees every message and timeout due at its
  // instant before it judges liveness. Within the band, equal-time events
  // still fire in schedule order.
  EventId AtMaintenance(SimTime when, EventFn fn);

  // Cancels a pending event; the callback's captures are released
  // immediately. Idempotent; cancelling an already-fired, already-cancelled,
  // or never-issued id is a no-op (the generation tag rejects stale ids even
  // after the slot has been recycled).
  void Cancel(EventId id);

  // Runs events until the queue is empty or the clock passes `deadline`.
  // Returns the number of events executed.
  size_t RunUntil(SimTime deadline);

  // Runs every pending event (including ones scheduled while running), up to
  // `max_events` as a runaway guard. Returns events executed.
  size_t RunAll(size_t max_events = SIZE_MAX);

  bool Empty() const { return live_count_ == 0; }
  size_t PendingCount() const { return live_count_; }

  // The timestamp of the earliest pending event, or kNoDeadline when the
  // queue is empty. Real-time backends (SocketTransport) bound their poll
  // timeout with this so timers fire promptly. May conservatively report a
  // cancelled event's time (the heap removes cancellations lazily), which
  // only causes a harmless early wake-up.
  static constexpr SimTime kNoDeadline = INT64_MAX;
  SimTime NextDeadline() const {
    return heap_.empty() ? kNoDeadline : slots_[heap_[0]].when;
  }

  // Introspection for tests: the number of pooled slots ever allocated. A
  // workload that schedules and fires in a steady state should plateau.
  size_t SlabSize() const { return slots_.size(); }

  // Approximate heap footprint in bytes (slot slab + heap array).
  size_t MemoryUsage() const {
    return slots_.capacity() * sizeof(Slot) + heap_.capacity() * sizeof(uint32_t);
  }

  // Optional callback-dispatch-time instrument, observed (wall-clock
  // microseconds) around every fired event — but only in opt-in PAST_PROF
  // builds; default builds never read it, keeping dispatch deterministic
  // and branch-free.
  void set_dispatch_prof(LogHistogram* hist) { dispatch_prof_ = hist; }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffff;
  // High bit of a slot's seq: the maintenance tie-break band. Sequence
  // numbers count up from 1, so the bit can never be reached by counting.
  static constexpr uint64_t kMaintenanceBand = 1ULL << 63;

  struct Slot {
    SimTime when = 0;
    uint64_t seq = 0;          // tie-break: equal timestamps fire in schedule order
    uint32_t generation = 1;   // current incarnation; bumped on release
    uint32_t next_free = kNoSlot;
    bool live = false;         // scheduled and not cancelled
    EventFn fn;
  };

  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t index);

  EventId Schedule(SimTime when, EventFn fn, uint64_t band);

  // (when, seq) strict ordering between two slots in the heap.
  bool Earlier(uint32_t a, uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.when != sb.when) {
      return sa.when < sb.when;
    }
    return sa.seq < sb.seq;
  }

  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void PopTop();

  bool PopAndRunOne();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  LogHistogram* dispatch_prof_ = nullptr;
  std::vector<Slot> slots_;      // the pool
  std::vector<uint32_t> heap_;   // binary min-heap of slot indices
  uint32_t free_head_ = kNoSlot;
};

}  // namespace past
