// Unit tests for src/common: rand, hash, histogram, serde, status.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/common/serde.h"
#include "src/common/status.h"

namespace farm {
namespace {

TEST(Pcg32Test, Deterministic) {
  Pcg32 a(42);
  Pcg32 b(42);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1);
  Pcg32 b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32Test, UniformBounds) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
    EXPECT_LT(rng.Uniform64(1000003), 1000003u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
  EXPECT_EQ(rng.Uniform64(0), 0u);
}

TEST(Pcg32Test, UniformIsRoughlyUniform) {
  Pcg32 rng(12345);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; i++) {
    counts[rng.Uniform(10)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, kSamples / 100);
  }
}

TEST(Pcg32Test, BernoulliProbability) {
  Pcg32 rng(99);
  int hits = 0;
  for (int i = 0; i < 100000; i++) {
    if (rng.Bernoulli(0.3)) {
      hits++;
    }
  }
  EXPECT_NEAR(hits, 30000, 1000);
}

TEST(ZipfTest, SkewsTowardLowIndices) {
  Pcg32 rng(5);
  Zipf zipf(1000, 0.99);
  int low = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; i++) {
    uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    if (v < 10) {
      low++;
    }
  }
  // With theta=0.99 the top-10 of 1000 keys draw a large share of accesses.
  EXPECT_GT(low, kSamples / 4);
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; bit++) {
    uint64_t a = Mix64(0x123456789abcdefULL);
    uint64_t b = Mix64(0x123456789abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  EXPECT_NEAR(total_flips / 64.0, 32.0, 6.0);
}

TEST(HashTest, Fnv1aDistinct) {
  EXPECT_NE(Fnv1a("hello"), Fnv1a("world"));
  EXPECT_EQ(Fnv1a("same"), Fnv1a("same"));
}

TEST(ConsistentHashTest, SuccessorsDistinct) {
  ConsistentHashRing ring;
  for (uint64_t n = 0; n < 8; n++) {
    ring.AddNode(n);
  }
  auto succ = ring.Successors(0xdeadbeef, 3);
  ASSERT_EQ(succ.size(), 3u);
  std::set<uint64_t> uniq(succ.begin(), succ.end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(ConsistentHashTest, SuccessorsCappedAtRingSize) {
  ConsistentHashRing ring;
  ring.AddNode(1);
  ring.AddNode(2);
  EXPECT_EQ(ring.Successors(42, 5).size(), 2u);
}

TEST(ConsistentHashTest, BalancedOwnership) {
  ConsistentHashRing ring(32);
  for (uint64_t n = 0; n < 10; n++) {
    ring.AddNode(n);
  }
  std::vector<int> counts(10, 0);
  for (uint64_t k = 0; k < 100000; k++) {
    counts[ring.Owner(k)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 2000);  // no node starves
    EXPECT_LT(c, 30000);
  }
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 10000u);
  uint64_t p50 = h.Percentile(50);
  uint64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 300.0);
}

TEST(HistogramTest, MinMaxMean) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(100);
  b.Record(200);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 200u);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  uint64_t big = 3'600'000'000'000ULL;  // one hour in ns
  h.Record(big);
  // Log-bucketing keeps ~1.6% relative precision.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), static_cast<double>(big), 0.02 * static_cast<double>(big));
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(4242);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 4242u);
  EXPECT_EQ(h.max(), 4242u);
  EXPECT_DOUBLE_EQ(h.Mean(), 4242.0);
  // Every percentile of a single-value distribution is that value
  // (to within log-bucket precision).
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_NEAR(static_cast<double>(h.Percentile(p)), 4242.0, 0.02 * 4242.0);
  }
}

TEST(HistogramTest, MergeDisjointRanges) {
  Histogram low;
  Histogram high;
  for (uint64_t v = 1; v <= 1000; v++) {
    low.Record(v);
  }
  for (uint64_t v = 1'000'000; v < 1'001'000; v++) {
    high.Record(v);
  }
  low.Merge(high);
  EXPECT_EQ(low.count(), 2000u);
  EXPECT_EQ(low.min(), 1u);
  EXPECT_EQ(low.max(), 1'000'999u);
  // Half the mass is below 1000, half at ~1e6: p25 in the low range, p75 high.
  EXPECT_LT(low.Percentile(25), 2000u);
  EXPECT_GT(low.Percentile(75), 900'000u);
}

TEST(HistogramTest, NearestRankCountOne) {
  // Values below the histogram's linear range (64) are bucketed exactly, so
  // boundary percentiles can be asserted with EXPECT_EQ.
  Histogram h;
  h.Record(7);
  EXPECT_EQ(h.Percentile(0), 7u);
  EXPECT_EQ(h.Percentile(50), 7u);
  EXPECT_EQ(h.Percentile(100), 7u);
}

TEST(HistogramTest, MergeEmptyIntoNonEmptyKeepsExtrema) {
  Histogram h;
  h.Record(100);
  Histogram empty;
  h.Merge(empty);
  // Merging an empty histogram must not poison min/max (empty's min
  // sentinel is UINT64_MAX, its max 0).
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.Percentile(50), 100u);
}

TEST(HistogramTest, MergeNonEmptyIntoEmpty) {
  Histogram empty;
  Histogram h;
  h.Record(100);
  h.Record(300);
  empty.Merge(h);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 100u);
  EXPECT_EQ(empty.max(), 300u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 200.0);
}

TEST(HistogramTest, PercentileClampedToObservedRange) {
  // A single large sample sits in a log bucket whose midpoint differs from
  // the sample; percentiles must still return the exact observed extrema,
  // never a value outside [min, max].
  Histogram h;
  h.Record(4242);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 4242u) << "p" << p;
  }
  Histogram two;
  two.Record(1000);
  two.Record(1001);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(two.Percentile(p), 1000u) << "p" << p;
    EXPECT_LE(two.Percentile(p), 1001u) << "p" << p;
  }
}

TEST(HistogramTest, NearestRankCountTwo) {
  Histogram h;
  h.Record(5);
  h.Record(50);
  // Rank ceil(p/100 * 2): p in (0, 50] is the first sample, p in (50, 100]
  // the second. The old floor(p/100 * (count-1)) + 1 rank returned the FIRST
  // sample for p99 -- the min as the tail.
  EXPECT_EQ(h.Percentile(0), 5u);
  EXPECT_EQ(h.Percentile(50), 5u);
  EXPECT_EQ(h.Percentile(51), 50u);
  EXPECT_EQ(h.Percentile(99), 50u);
  EXPECT_EQ(h.Percentile(100), 50u);
}

TEST(HistogramTest, NearestRankSmallCountTail) {
  // Ten distinct samples: p99 is rank ceil(9.9) = 10, the largest; p90 is
  // rank 9. The old formula reported rank 9 for p99.
  Histogram h;
  for (uint64_t v = 1; v <= 10; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(99), 10u);
  EXPECT_EQ(h.Percentile(90), 9u);
  EXPECT_EQ(h.Percentile(91), 10u);
  EXPECT_EQ(h.Percentile(100), 10u);
  EXPECT_EQ(h.Percentile(0), 1u);
  EXPECT_EQ(h.Percentile(10), 1u);
  EXPECT_EQ(h.Percentile(11), 2u);
}

TEST(HistogramTest, NearestRankLargeCount) {
  // Two observations of each value in [1, 50]: count = 100, so pN is simply
  // the Nth rank. All values sit in the exact linear range.
  Histogram h;
  for (uint64_t v = 1; v <= 50; v++) {
    h.Record(v);
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0), 1u);
  EXPECT_EQ(h.Percentile(1), 1u);
  EXPECT_EQ(h.Percentile(50), 25u);
  EXPECT_EQ(h.Percentile(98), 49u);
  EXPECT_EQ(h.Percentile(99), 50u);
  EXPECT_EQ(h.Percentile(100), 50u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  // Recording after Reset starts from scratch.
  h.Record(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
}

TEST(TimeSeriesTest, BucketsByInterval) {
  TimeSeries ts(1000);
  ts.Record(0);
  ts.Record(999);
  ts.Record(1000);
  ts.Record(2500, 3);
  ASSERT_EQ(ts.intervals().size(), 3u);
  EXPECT_EQ(ts.intervals()[0], 2u);
  EXPECT_EQ(ts.intervals()[1], 1u);
  EXPECT_EQ(ts.intervals()[2], 3u);
  EXPECT_DOUBLE_EQ(ts.AverageRate(0, 2000), 1.5);
}

TEST(TimeSeriesTest, AverageRatePartialIntervals) {
  TimeSeries ts(1000);
  ts.Record(500, 2);   // bucket 0
  ts.Record(1500, 4);  // bucket 1
  ts.Record(2500, 6);  // bucket 2
  // A partial trailing interval is excluded: [0, 1500) covers only bucket 0.
  EXPECT_DOUBLE_EQ(ts.AverageRate(0, 1500), 2.0);
  // A partial leading interval still counts its full bucket.
  EXPECT_DOUBLE_EQ(ts.AverageRate(500, 2000), 3.0);
  // A window inside one interval spans no complete interval: rate 0.
  EXPECT_DOUBLE_EQ(ts.AverageRate(500, 999), 0.0);
  // A window entirely past the recorded data: rate 0.
  EXPECT_DOUBLE_EQ(ts.AverageRate(5000, 10000), 0.0);
  // Exact interval boundaries cover all three buckets.
  EXPECT_DOUBLE_EQ(ts.AverageRate(0, 3000), 4.0);
}

TEST(SerdeTest, RoundTrip) {
  BufWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  auto bytes = w.Take();

  BufReader r(bytes);
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, BytesWithEmbeddedZeros) {
  BufWriter w;
  std::vector<uint8_t> blob = {0, 1, 0, 2, 0};
  w.PutBytes(blob.data(), blob.size());
  BufReader r(w.bytes());
  EXPECT_EQ(r.GetBytes(), blob);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  Status s = AbortedStatus("conflict");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "ABORTED: conflict");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);

  StatusOr<int> e = NotFoundStatus("missing");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace farm
