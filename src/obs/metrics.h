// MetricsRegistry — named counters, gauges, and fixed-bucket histograms.
//
// The registry is the uniform instrumentation layer every subsystem reports
// through: the simulated network, the Pastry protocol engine, and the PAST
// storage layer all register metrics here, and the experiment drivers dump
// one JSON document per run. Design constraints:
//
//  * Cheap enough to stay on in every run. Instruments are registered once
//    (a map lookup) and callers hold raw pointers; the hot-path operations
//    (Counter::Inc, Histogram::Observe) are a few arithmetic instructions
//    with no locks or allocation. The simulator is single-threaded, so no
//    atomics either.
//  * Stable identity. Instrument pointers remain valid for the registry's
//    lifetime; re-registering a name returns the existing instrument, so
//    many nodes on one network share (and sum into) the same metric.
//  * Machine readable. DumpJson() emits {counters, gauges, histograms} with
//    names sorted for deterministic diffs.
//
// Naming convention (see DESIGN.md "Observability"): dotted lowercase paths,
// "<layer>.<metric>" — e.g. "net.sent", "pastry.route.hops", "cache.hits".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/log_histogram.h"

namespace past {

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// A last-written value that also supports relative updates, so instruments
// shared by many nodes can track an aggregate (e.g. total bytes stored).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  void Sub(double delta) { value_ -= delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed upper-bound buckets plus an implicit overflow bucket; also tracks
// count and sum so dumps can report means. A sample lands in the first
// bucket whose bound is >= the value (bounds are inclusive upper edges).
// Non-finite samples (NaN, +/-inf) would poison `sum` — and through it the
// mean of the whole run — so they are rejected into the `invalid` counter
// instead of being observed.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_; }
  uint64_t invalid() const { return invalid_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  const std::vector<double>& bounds() const { return bounds_; }
  // buckets()[i] counts samples <= bounds()[i] (cumulative-free, per bucket);
  // buckets().back() is the overflow bucket (> bounds().back()).
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  JsonValue ToJson() const;

 private:
  std::vector<double> bounds_;    // ascending upper edges
  std::vector<uint64_t> buckets_; // bounds_.size() + 1 (overflow last)
  uint64_t count_ = 0;
  uint64_t invalid_ = 0;          // rejected non-finite samples
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent: returns the existing instrument when the name is already
  // registered. Pointers stay valid for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  // An existing histogram keeps its original bounds; `bounds` must be
  // non-empty and strictly ascending.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);
  // Log-bucketed quantile histogram; an existing one keeps its original
  // sub-bucket resolution.
  LogHistogram* GetLogHistogram(std::string_view name,
                                int sub_buckets = LogHistogram::kDefaultSubBuckets);

  // Lookup without creation; nullptr when absent.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  const LogHistogram* FindLogHistogram(std::string_view name) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {...},
  //  "log_histograms": {...}}, names sorted.
  JsonValue ToJson() const;
  std::string DumpJson(int indent = 2) const { return ToJson().Dump(indent); }

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>> log_histograms_;
};

}  // namespace past

