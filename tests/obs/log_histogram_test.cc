// LogHistogram tests: the bounded-relative-error contract checked against a
// sorted-sample oracle, the value-domain rules (zero bucket, invalid
// rejection), and the registry integration the experiment dumps rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/json.h"
#include "src/obs/log_histogram.h"
#include "src/obs/metrics.h"

namespace past {
namespace {

// Exact nearest-rank quantile of a sorted sample vector — the oracle the
// histogram's estimate is measured against.
double OracleQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) {
    rank = 1;
  }
  return sorted[std::min(rank, sorted.size()) - 1];
}

// For every positive sample, the histogram's estimate at any quantile must be
// within relative_error() of the oracle. Nearest-rank answers can straddle a
// bucket edge when duplicates are involved, so compare against the bucket the
// oracle value itself would land in: |est - oracle| / oracle <= 2 * rel_err
// is the loosest bound the midpoint scheme admits; the per-sample guarantee
// is rel_err, which is what we assert.
void ExpectQuantilesWithinBound(const LogHistogram& h,
                                std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const double rel = h.relative_error();
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double oracle = OracleQuantile(samples, q);
    const double est = h.Quantile(q);
    if (oracle == 0.0) {
      EXPECT_EQ(est, 0.0) << "q=" << q;
      continue;
    }
    EXPECT_LE(std::abs(est - oracle) / oracle, rel)
        << "q=" << q << " oracle=" << oracle << " est=" << est;
  }
}

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p999(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(LogHistogramTest, SingleSampleIsExactAtEveryQuantile) {
  LogHistogram h;
  h.Observe(1234.5);
  // Quantile() clamps to the exact [min, max], so one sample reports itself.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 1234.5) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), 1234.5);
  EXPECT_DOUBLE_EQ(h.max(), 1234.5);
}

TEST(LogHistogramTest, ZeroIsCountedExactly) {
  LogHistogram h;
  h.Observe(0.0);
  h.Observe(0.0);
  h.Observe(8.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.zero_count(), 2u);
  // Two of three samples are zero, so p50 sits in the zero bucket.
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 8.0);
}

TEST(LogHistogramTest, NegativeAndNonFiniteSamplesAreRejected) {
  LogHistogram h;
  h.Observe(-1.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.invalid(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  h.Observe(2.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

// Property: against uniform samples spanning several octaves, every reported
// quantile stays within the documented relative-error bound of the exact
// nearest-rank answer.
TEST(LogHistogramTest, QuantilesMatchSortedOracleUniform) {
  Rng rng(0x9e3779b97f4a7c15ull);
  LogHistogram h;
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // [1, 1e6): about 20 octaves of spread, like microsecond latencies.
    double v = 1.0 + rng.UniformDouble() * (1e6 - 1.0);
    samples.push_back(v);
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), 20000u);
  ExpectQuantilesWithinBound(h, samples);
}

// Property: heavy-tailed (log-normal) samples — the shape real latency
// distributions take — obey the same bound, including deep in the tail.
TEST(LogHistogramTest, QuantilesMatchSortedOracleLogNormal) {
  Rng rng(42);
  LogHistogram h;
  std::vector<double> samples;
  samples.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    double v = std::exp(6.0 + 2.0 * rng.Gaussian());
    samples.push_back(v);
    h.Observe(v);
  }
  ExpectQuantilesWithinBound(h, samples);
}

// Property: sub-microsecond values (fractions < 1) live in negative octaves;
// the dense window grows downward and the bound still holds.
TEST(LogHistogramTest, QuantilesMatchSortedOracleTinyValues) {
  Rng rng(7);
  LogHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble() * 1e-3 + 1e-9;
    samples.push_back(v);
    h.Observe(v);
  }
  ExpectQuantilesWithinBound(h, samples);
}

TEST(LogHistogramTest, CoarserResolutionWidensTheBoundAccordingly) {
  // 8 sub-buckets per octave: rel error <= 1/16. Spot-check the contract is
  // parameterised, not hard-wired to the default resolution.
  Rng rng(3);
  LogHistogram h(8);
  EXPECT_DOUBLE_EQ(h.relative_error(), 1.0 / 16.0);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    double v = 1.0 + rng.UniformDouble() * 9999.0;
    samples.push_back(v);
    h.Observe(v);
  }
  ExpectQuantilesWithinBound(h, samples);
}

TEST(LogHistogramTest, MinMaxSumAreExact) {
  LogHistogram h;
  h.Observe(3.0);
  h.Observe(100.0);
  h.Observe(7.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 110.0);
  // Quantile clamping: estimates never escape the observed range.
  EXPECT_GE(h.Quantile(0.001), 3.0);
  EXPECT_LE(h.Quantile(0.999), 100.0);
}

TEST(LogHistogramTest, ToJsonCarriesTheQuantileContract) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i));
  }
  JsonValue j = h.ToJson();
  // The keys json_check and past_stats depend on must always be present.
  for (const char* key :
       {"count", "invalid", "zero", "sum", "mean", "min", "max",
        "relative_error", "p50", "p90", "p99", "p999", "buckets"}) {
    EXPECT_NE(j.Find(key), nullptr) << key;
  }
  EXPECT_DOUBLE_EQ(j.Find("count")->AsDouble(), 1000.0);
  const double p50 = j.Find("p50")->AsDouble();
  EXPECT_NEAR(p50, 500.0, 500.0 * h.relative_error());
}

TEST(LogHistogramTest, RegistryPreRegistrationEmitsQuantileKeysAtCountZero) {
  // The Network constructor pre-registers the op-latency histograms so every
  // experiment dump carries the quantile keys even when no op ran; this is
  // the contract the bench_smoke_validate ctest checks end to end.
  MetricsRegistry registry;
  registry.GetLogHistogram("past.insert.latency_us");
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(registry.DumpJson(), &parsed));
  const JsonValue* p999 =
      parsed.FindPath("log_histograms/past.insert.latency_us/p999");
  ASSERT_NE(p999, nullptr);
  EXPECT_DOUBLE_EQ(p999->AsDouble(), 0.0);
}

}  // namespace
}  // namespace past
