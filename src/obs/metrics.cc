#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace past {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  PAST_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  PAST_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
                 "histogram bounds must be strictly ascending");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  if (!std::isfinite(value)) {
    // One NaN folded into sum_ would turn the whole run's mean into NaN;
    // count the rejection so the dump still shows something went wrong.
    ++invalid_;
    return;
  }
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

JsonValue Histogram::ToJson() const {
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i < bounds_.size(); ++i) {
    JsonValue b = JsonValue::Object();
    b.Set("le", bounds_[i]);
    b.Set("count", buckets_[i]);
    buckets.Append(std::move(b));
  }
  JsonValue overflow = JsonValue::Object();
  overflow.Set("le", "inf");
  overflow.Set("count", buckets_.back());
  buckets.Append(std::move(overflow));

  JsonValue out = JsonValue::Object();
  out.Set("count", count_);
  out.Set("invalid", invalid_);
  out.Set("sum", sum_);
  out.Set("mean", mean());
  out.Set("buckets", std::move(buckets));
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

LogHistogram* MetricsRegistry::GetLogHistogram(std::string_view name,
                                               int sub_buckets) {
  auto it = log_histograms_.find(name);
  if (it == log_histograms_.end()) {
    it = log_histograms_
             .emplace(std::string(name), std::make_unique<LogHistogram>(sub_buckets))
             .first;
  }
  return it->second.get();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

const LogHistogram* MetricsRegistry::FindLogHistogram(std::string_view name) const {
  auto it = log_histograms_.find(name);
  return it == log_histograms_.end() ? nullptr : it->second.get();
}

JsonValue MetricsRegistry::ToJson() const {
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : counters_) {
    counters.Set(name, c->value());
  }
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, g] : gauges_) {
    gauges.Set(name, g->value());
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms_) {
    histograms.Set(name, h->ToJson());
  }
  JsonValue log_histograms = JsonValue::Object();
  for (const auto& [name, h] : log_histograms_) {
    log_histograms.Set(name, h->ToJson());
  }
  JsonValue out = JsonValue::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  out.Set("log_histograms", std::move(log_histograms));
  return out;
}

}  // namespace past
