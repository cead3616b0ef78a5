/**
 * @file
 * Unit tests for the support library: RNG, stats, Fenwick, byte-size
 * parsing, and the LDV bucket rule.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "src/profile/region_profiler.h"
#include "src/support/byte_size.h"
#include "src/support/fenwick.h"
#include "src/support/parse_uint.h"
#include "src/support/rng.h"
#include "src/support/stats.h"

namespace bp {
namespace {

// ---------------------------------------------------------- byte sizes

TEST(ByteSizeTest, ParsesPlainAndSuffixedSizes)
{
    EXPECT_EQ(parseByteSize("1"), 1u);
    EXPECT_EQ(parseByteSize("4096"), 4096u);
    EXPECT_EQ(parseByteSize("64K"), 64u << 10);
    EXPECT_EQ(parseByteSize("64k"), 64u << 10);
    EXPECT_EQ(parseByteSize("256M"), 256ull << 20);
    EXPECT_EQ(parseByteSize("256m"), 256ull << 20);
    EXPECT_EQ(parseByteSize("2G"), 2ull << 30);
    EXPECT_EQ(parseByteSize("2g"), 2ull << 30);
    // The largest representable values round-trip...
    EXPECT_EQ(parseByteSize("18446744073709551615"),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(parseByteSize("17179869183G"), 17179869183ull << 30);
}

TEST(ByteSizeTest, RejectsEverythingElse)
{
    // ...and one past them overflows.
    EXPECT_FALSE(parseByteSize("18446744073709551616"));
    EXPECT_FALSE(parseByteSize("17179869184G"));
    // Zero, signs, whitespace, and partial consumption are refused —
    // strtoull would have quietly read "-1" as 2^64 - 1.
    EXPECT_FALSE(parseByteSize(""));
    EXPECT_FALSE(parseByteSize("0"));
    EXPECT_FALSE(parseByteSize("0K"));
    EXPECT_FALSE(parseByteSize("-1"));
    EXPECT_FALSE(parseByteSize("+1"));
    EXPECT_FALSE(parseByteSize(" 1"));
    EXPECT_FALSE(parseByteSize("1 "));
    EXPECT_FALSE(parseByteSize("K"));
    EXPECT_FALSE(parseByteSize("1T"));
    EXPECT_FALSE(parseByteSize("1KB"));
    EXPECT_FALSE(parseByteSize("4M2"));
    EXPECT_FALSE(parseByteSize("0x10"));
    EXPECT_FALSE(parseByteSize("1.5M"));
}

// ------------------------------------------------------- real numbers

TEST(ParseRealTest, ParsesFiniteDecimals)
{
    EXPECT_EQ(parseReal("0.25"), 0.25);
    EXPECT_EQ(parseReal("1"), 1.0);
    EXPECT_EQ(parseReal("-0.5"), -0.5);
    EXPECT_EQ(parseReal("2e-3"), 2e-3);
    EXPECT_EQ(parseReal("1E3"), 1000.0);
    EXPECT_EQ(parseReal("1e300"), 1e300);
}

TEST(ParseRealTest, RejectsEverythingElse)
{
    // strtod reads all of these as numbers (or as a prefix of one):
    // "nan" passes no range check, "1e400" saturates to infinity.
    for (const char *bad :
         {"", "nan", "NaN", "inf", "-inf", "infinity", "1e400", "-1e400",
          "+1", " 1", "1 ", "1x", "0x10", "1,5", "--1", "e5", "."}) {
        EXPECT_FALSE(parseReal(bad)) << "'" << bad << "'";
    }
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsSequence)
{
    Rng a(7);
    const uint64_t first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BoundedCoversRange)
{
    Rng rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, DoubleMeanNearHalf)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, HashMixIsStateless)
{
    EXPECT_EQ(hashMix(123), hashMix(123));
    EXPECT_NE(hashMix(123), hashMix(124));
}

// -------------------------------------------------------------- ldvBucket

TEST(LdvBucketTest, SmallDistances)
{
    EXPECT_EQ(ldvBucket(0), 0u);
    EXPECT_EQ(ldvBucket(1), 0u);
    EXPECT_EQ(ldvBucket(2), 1u);
    EXPECT_EQ(ldvBucket(3), 1u);
    EXPECT_EQ(ldvBucket(4), 2u);
    EXPECT_EQ(ldvBucket(7), 2u);
    EXPECT_EQ(ldvBucket(8), 3u);
}

TEST(LdvBucketTest, BucketBoundaries)
{
    // Bucket n holds [2^n, 2^(n+1)) for every bucket below the top.
    for (unsigned n = 1; n < kLdvBuckets - 1; ++n) {
        EXPECT_EQ(ldvBucket(uint64_t{1} << n), n);
        EXPECT_EQ(ldvBucket((uint64_t{1} << (n + 1)) - 1), n);
    }
}

TEST(LdvBucketTest, DistancesPastTheTopBucketClampIntoIt)
{
    const unsigned top = kLdvBuckets - 1;
    EXPECT_EQ(ldvBucket((uint64_t{1} << top) - 1), top - 1);
    EXPECT_EQ(ldvBucket(uint64_t{1} << top), top);
    EXPECT_EQ(ldvBucket(uint64_t{1} << (top + 1)), top);
    EXPECT_EQ(ldvBucket(uint64_t{1} << 63), top);
    EXPECT_EQ(ldvBucket(UINT64_MAX), top);
}

// ------------------------------------------------------------ RunningStat

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, BasicMoments)
{
    RunningStat s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatTest, ClearResets)
{
    RunningStat s;
    s.add(5.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
}

TEST(StatsTest, Means)
{
    const std::vector<double> v{1.0, 2.0, 4.0};
    EXPECT_NEAR(arithmeticMean(v), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(harmonicMean(v), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_NEAR(geometricMean(v), 2.0, 1e-12);
}

TEST(StatsTest, EmptyMeansAreZero)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(StatsTest, PercentAbsError)
{
    EXPECT_DOUBLE_EQ(percentAbsError(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(percentAbsError(90.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(percentAbsError(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentAbsError(5.0, 0.0), 100.0);
}

// -------------------------------------------------------------- Fenwick

TEST(FenwickTest, PrefixSums)
{
    FenwickTree t(10);
    t.add(0, 1);
    t.add(5, 3);
    t.add(9, 2);
    EXPECT_EQ(t.prefixSum(0), 1);
    EXPECT_EQ(t.prefixSum(4), 1);
    EXPECT_EQ(t.prefixSum(5), 4);
    EXPECT_EQ(t.prefixSum(9), 6);
}

TEST(FenwickTest, RangeSum)
{
    FenwickTree t(8);
    for (size_t i = 0; i < 8; ++i)
        t.add(i, static_cast<int64_t>(i));
    EXPECT_EQ(t.rangeSum(2, 4), 2 + 3 + 4);
    EXPECT_EQ(t.rangeSum(0, 7), 28);
    EXPECT_EQ(t.rangeSum(5, 3), 0);  // inverted range
}

TEST(FenwickTest, NegativeDeltas)
{
    FenwickTree t(4);
    t.add(1, 5);
    t.add(1, -2);
    EXPECT_EQ(t.prefixSum(3), 3);
}

TEST(FenwickTest, PrefixBeyondEndClamps)
{
    FenwickTree t(4);
    t.add(3, 7);
    EXPECT_EQ(t.prefixSum(100), 7);
}

TEST(FenwickTest, MatchesNaiveReference)
{
    Rng rng(99);
    const size_t n = 200;
    FenwickTree t(n);
    std::vector<int64_t> naive(n, 0);
    for (int op = 0; op < 1000; ++op) {
        const size_t i = rng.nextBounded(n);
        const int64_t d = rng.nextRange(-5, 5);
        t.add(i, d);
        naive[i] += d;
        const size_t q = rng.nextBounded(n);
        int64_t expect = 0;
        for (size_t j = 0; j <= q; ++j)
            expect += naive[j];
        ASSERT_EQ(t.prefixSum(q), expect);
    }
}

} // namespace
} // namespace bp
