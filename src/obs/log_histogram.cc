#include "src/obs/log_histogram.h"

#include <cmath>

#include "src/common/check.h"

namespace past {

namespace {

// Floor division for the signed linear index -> (octave, sub) split.
inline int FloorDiv(int a, int b) {
  int q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

}  // namespace

LogHistogram::LogHistogram(int sub_buckets) : sub_buckets_(sub_buckets) {
  PAST_CHECK_MSG(sub_buckets >= 1, "LogHistogram needs at least one sub-bucket");
}

int LogHistogram::IndexOf(double value) const {
  int exp = 0;
  double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5, 1)
  int sub = static_cast<int>((frac - 0.5) * 2.0 * static_cast<double>(sub_buckets_));
  if (sub < 0) {
    sub = 0;
  } else if (sub >= sub_buckets_) {
    sub = sub_buckets_ - 1;
  }
  return exp * sub_buckets_ + sub;
}

double LogHistogram::BucketLow(int index) const {
  int exp = FloorDiv(index, sub_buckets_);
  int sub = index - exp * sub_buckets_;
  double n = static_cast<double>(sub_buckets_);
  return std::ldexp(1.0 + static_cast<double>(sub) / n, exp - 1);
}

double LogHistogram::BucketMid(int index) const {
  int exp = FloorDiv(index, sub_buckets_);
  int sub = index - exp * sub_buckets_;
  double n = static_cast<double>(sub_buckets_);
  // low + half the bucket width, both exactly representable scalings.
  return std::ldexp(1.0 + (static_cast<double>(sub) + 0.5) / n, exp - 1);
}

void LogHistogram::Observe(double value) {
  if (!std::isfinite(value) || value < 0.0) {
    ++invalid_;
    return;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
  }
  ++count_;
  sum_ += value;
  if (value == 0.0) {
    ++zero_count_;
    return;
  }
  int index = IndexOf(value);
  if (buckets_.empty()) {
    base_ = index;
    buckets_.push_back(0);
  } else if (index < base_) {
    buckets_.insert(buckets_.begin(), static_cast<size_t>(base_ - index), 0);
    base_ = index;
  } else if (index >= base_ + static_cast<int>(buckets_.size())) {
    buckets_.resize(static_cast<size_t>(index - base_) + 1, 0);
  }
  ++buckets_[static_cast<size_t>(index - base_)];
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (q < 0.0) {
    q = 0.0;
  } else if (q > 1.0) {
    q = 1.0;
  }
  // Nearest-rank: the sample at 1-based sorted position ceil(q * count).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count_) {
    rank = count_;
  }
  double estimate = 0.0;
  if (rank <= zero_count_) {
    estimate = 0.0;
  } else {
    uint64_t seen = zero_count_;
    estimate = max_;  // fallback; the loop always resolves before running off
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) {
        estimate = BucketMid(base_ + static_cast<int>(i));
        break;
      }
    }
  }
  // The exact extremes are tracked, so clamping can only reduce error.
  if (estimate < min_) {
    estimate = min_;
  }
  if (estimate > max_) {
    estimate = max_;
  }
  return estimate;
}

JsonValue LogHistogram::ToJson() const {
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    int index = base_ + static_cast<int>(i);
    JsonValue b = JsonValue::Object();
    b.Set("idx", index);
    b.Set("low", BucketLow(index));
    b.Set("count", buckets_[i]);
    buckets.Append(std::move(b));
  }
  JsonValue out = JsonValue::Object();
  out.Set("count", count_);
  out.Set("invalid", invalid_);
  out.Set("zero", zero_count_);
  out.Set("sum", sum_);
  out.Set("mean", mean());
  out.Set("min", min());
  out.Set("max", max());
  out.Set("relative_error", relative_error());
  out.Set("p50", p50());
  out.Set("p90", p90());
  out.Set("p99", p99());
  out.Set("p999", p999());
  out.Set("buckets", std::move(buckets));
  return out;
}

}  // namespace past
