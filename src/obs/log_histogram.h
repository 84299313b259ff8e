// LogHistogram — log-bucketed quantile histogram with bounded relative error.
//
// HDR-style: each power-of-two octave [2^(e-1), 2^e) is split into N equal
// sub-buckets, so a sample is placed with one frexp() and one multiply — no
// log() on the hot path and no a-priori value range. Reporting the midpoint
// of a sample's bucket guarantees a relative error of at most 1/(2N) for any
// positive sample (the bucket width is 2^(e-1)/N and every value in the
// bucket is >= 2^(e-1)), which makes quantile estimates (p50/p90/p99/p999)
// trustworthy at every scale from sub-microsecond to hours.
//
// Buckets are kept in a dense vector addressed by a signed linear index
// (octave * N + sub_bucket) that grows on demand in both directions, so a
// workload spanning a few octaves stays compact while nothing overflows.
// All arithmetic is plain IEEE double + integer ops: identical inputs give
// identical buckets and quantiles on every run and thread count, which the
// experiment determinism ctests rely on.
//
// Domain: finite values >= 0. Zero is counted exactly in a dedicated bucket;
// negative or non-finite samples are rejected into `invalid` (they would
// poison sums and have no log bucket).
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/json.h"

namespace past {

class LogHistogram {
 public:
  // 128 sub-buckets per octave: relative error <= 1/(2*128) ~ 0.4%.
  static constexpr int kDefaultSubBuckets = 128;

  explicit LogHistogram(int sub_buckets = kDefaultSubBuckets);

  void Observe(double value);

  uint64_t count() const { return count_; }     // valid samples (zeros included)
  uint64_t invalid() const { return invalid_; }  // rejected samples
  uint64_t zero_count() const { return zero_count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  int sub_buckets() const { return sub_buckets_; }

  // Upper bound on |estimate - true| / true for any positive sample.
  double relative_error() const { return 0.5 / static_cast<double>(sub_buckets_); }

  // Nearest-rank quantile estimate: the bucket-midpoint value of the sample
  // at sorted position ceil(q * count), clamped to the exact [min, max].
  // q in [0, 1]; returns 0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }
  double p999() const { return Quantile(0.999); }

  // {"count", "invalid", "zero", "sum", "mean", "min", "max",
  //  "relative_error", "p50", "p90", "p99", "p999",
  //  "buckets": [{"idx", "low", "count"}, ...]} — non-empty buckets only,
  // ascending by index; "low" is the bucket's inclusive lower edge.
  JsonValue ToJson() const;

 private:
  // Signed linear bucket index of a positive finite value.
  int IndexOf(double value) const;
  // Inclusive lower edge and midpoint of bucket `index`.
  double BucketLow(int index) const;
  double BucketMid(int index) const;

  int sub_buckets_;
  std::vector<uint64_t> buckets_;  // dense window [base_, base_ + size)
  int base_ = 0;                   // linear index of buckets_[0]
  uint64_t count_ = 0;
  uint64_t zero_count_ = 0;
  uint64_t invalid_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace past
