/**
 * @file
 * Unit and property tests for CoreSet / SharerSet (support/core_set.h):
 * the word-array bitmap must agree with std::bitset<1024> on every
 * operation, with explicit attention to the 64-bit word boundaries
 * the old flat-mask representation ended at.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <vector>

#include "src/support/core_set.h"
#include "src/support/rng.h"

namespace bp {
namespace {

using Wide = CoreSet<1024>;
using Ref = std::bitset<1024>;

std::vector<unsigned>
setBitsOf(const Wide &s)
{
    std::vector<unsigned> bits;
    s.forEachSetBit([&](unsigned b) { bits.push_back(b); });
    return bits;
}

std::vector<unsigned>
setBitsOf(const Ref &r)
{
    std::vector<unsigned> bits;
    for (unsigned b = 0; b < r.size(); ++b) {
        if (r.test(b))
            bits.push_back(b);
    }
    return bits;
}

void
expectEquivalent(const Wide &s, const Ref &r)
{
    ASSERT_EQ(s.count(), r.count());
    ASSERT_EQ(s.none(), r.none());
    ASSERT_EQ(s.any(), r.any());
    ASSERT_EQ(setBitsOf(s), setBitsOf(r));
}

// ------------------------------------------------------- word boundaries

TEST(CoreSetTest, WordBoundaryBits)
{
    // Each boundary of the old single-word mask and of every internal
    // CoreSet word: set, test, clear must be exact and neighbors must
    // be untouched.
    for (const unsigned bit : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 255u,
                               256u, 511u, 512u, 513u, 1022u, 1023u}) {
        Wide s;
        s.set(bit);
        EXPECT_TRUE(s.test(bit)) << bit;
        EXPECT_EQ(s.count(), 1u) << bit;
        if (bit > 0) {
            EXPECT_FALSE(s.test(bit - 1)) << bit;
        }
        if (bit + 1 < Wide::kBits) {
            EXPECT_FALSE(s.test(bit + 1)) << bit;
        }
        EXPECT_FALSE(s.anyOtherThan(bit)) << bit;
        s.clear(bit);
        EXPECT_TRUE(s.none()) << bit;
    }
}

TEST(CoreSetTest, IterationCrossesWords)
{
    Wide s;
    const std::vector<unsigned> bits = {0, 63, 64, 511, 512, 1023};
    for (const unsigned b : bits)
        s.set(b);
    EXPECT_EQ(setBitsOf(s), bits);  // ascending order
    EXPECT_TRUE(s.anyOtherThan(64));
}

TEST(CoreSetTest, SingleAndEquality)
{
    const auto a = Wide::single(512);
    Wide b;
    b.set(512);
    EXPECT_EQ(a, b);
    b.set(0);
    EXPECT_NE(a, b);
    b.clear(0);
    EXPECT_EQ(a, b);
}

TEST(CoreSetTest, NarrowCapacityUsesPartialWord)
{
    // Non-multiple-of-64 capacities must work (kMaxSockets-style).
    CoreSet<100> s;
    s.set(99);
    EXPECT_TRUE(s.test(99));
    EXPECT_EQ(s.count(), 1u);
}

// ------------------------------------------------ randomized vs bitset

TEST(CoreSetTest, RandomOpsMatchStdBitset)
{
    Rng rng(0xC0DE5E7);
    Wide s;
    Ref r;
    for (int i = 0; i < 20000; ++i) {
        const unsigned bit =
            static_cast<unsigned>(rng.nextBounded(Wide::kBits));
        switch (rng.nextBounded(4)) {
          case 0:
            s.set(bit);
            r.set(bit);
            break;
          case 1:
            s.clear(bit);
            r.reset(bit);
            break;
          case 2:
            ASSERT_EQ(s.test(bit), r.test(bit));
            break;
          case 3:
            ASSERT_EQ(s.anyOtherThan(bit),
                      (Ref(r).reset(bit)).any());
            break;
        }
        if (i % 256 == 0)
            expectEquivalent(s, r);
    }
    expectEquivalent(s, r);
}

TEST(CoreSetTest, AndNotMatchesStdBitset)
{
    Rng rng(0xBEEF);
    for (int round = 0; round < 200; ++round) {
        Wide a, b;
        Ref ra, rb;
        const unsigned n = static_cast<unsigned>(rng.nextBounded(64)) + 1;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned abit =
                static_cast<unsigned>(rng.nextBounded(Wide::kBits));
            const unsigned bbit =
                static_cast<unsigned>(rng.nextBounded(Wide::kBits));
            a.set(abit);
            ra.set(abit);
            b.set(bbit);
            rb.set(bbit);
        }
        Wide and_not = a;
        and_not.andNot(b);
        expectEquivalent(and_not, ra & ~rb);
    }
}

// ------------------------------------------------------------ SharerSet

TEST(SharerSetTest, TwoLevelBookkeeping)
{
    SharerSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.sockets().none());

    s.set(3, 5);
    s.set(3, 63);
    s.set(100, 0);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.test(3, 5));
    EXPECT_TRUE(s.test(3, 63));
    EXPECT_TRUE(s.test(100, 0));
    EXPECT_FALSE(s.test(3, 6));
    EXPECT_FALSE(s.test(4, 5));
    EXPECT_EQ(s.sockets().count(), 2u);
    EXPECT_TRUE(s.sockets().test(3));
    EXPECT_TRUE(s.sockets().test(100));
    EXPECT_EQ(s.socketWord(3), (uint64_t{1} << 5) | (uint64_t{1} << 63));
    EXPECT_EQ(s.socketWord(100), 1u);
    EXPECT_EQ(s.socketWord(4), 0u);

    // Clearing the last bit of a socket drops the summary bit.
    s.clear(100, 0);
    EXPECT_FALSE(s.sockets().test(100));
    EXPECT_EQ(s.socketWord(100), 0u);
    s.clear(3, 5);
    EXPECT_TRUE(s.sockets().test(3));
    s.clear(3, 63);
    EXPECT_TRUE(s.empty());
}

TEST(SharerSetTest, ForEachVisitsAscendingAndAnyOtherThan)
{
    SharerSet s;
    s.set(127, 63);
    s.set(0, 7);
    s.set(5, 0);
    s.set(5, 33);
    std::vector<std::pair<unsigned, unsigned>> seen;
    s.forEach([&](unsigned socket, unsigned bit) {
        seen.emplace_back(socket, bit);
    });
    const std::vector<std::pair<unsigned, unsigned>> want = {
        {0, 7}, {5, 0}, {5, 33}, {127, 63}};
    EXPECT_EQ(seen, want);

    EXPECT_TRUE(s.anyOtherThan(0, 7));
    s.clear(5, 0);
    s.clear(5, 33);
    s.clear(127, 63);
    EXPECT_FALSE(s.anyOtherThan(0, 7));
    EXPECT_TRUE(s.anyOtherThan(0, 8));
    EXPECT_TRUE(s.anyOtherThan(1, 7));
}

TEST(SharerSetTest, ClearSocketDropsWholeShard)
{
    SharerSet s;
    s.set(2, 1);
    s.set(2, 50);
    s.set(9, 9);
    s.clearSocket(2);
    EXPECT_FALSE(s.test(2, 1));
    EXPECT_FALSE(s.test(2, 50));
    EXPECT_TRUE(s.test(9, 9));
    EXPECT_FALSE(s.sockets().test(2));
    s.clearSocket(7);  // absent socket: no-op
    EXPECT_TRUE(s.test(9, 9));
}

TEST(SharerSetTest, RandomOpsMatchFlatReference)
{
    // The two-level set must agree with a flat 8192-bit reference
    // (128 sockets x 64 cores) under random set/clear/clearSocket.
    Rng rng(0x5A5A);
    SharerSet s;
    std::bitset<kMaxSockets * 64> ref;
    for (int i = 0; i < 20000; ++i) {
        const unsigned socket =
            static_cast<unsigned>(rng.nextBounded(kMaxSockets));
        const unsigned bit = static_cast<unsigned>(rng.nextBounded(64));
        const unsigned flat = socket * 64 + bit;
        switch (rng.nextBounded(4)) {
          case 0:
            s.set(socket, bit);
            ref.set(flat);
            break;
          case 1:
            s.clear(socket, bit);
            ref.reset(flat);
            break;
          case 2:
            for (unsigned b = 0; b < 64; ++b)
                ref.reset(socket * 64 + b);
            s.clearSocket(socket);
            break;
          case 3:
            ASSERT_EQ(s.test(socket, bit), ref.test(flat));
            break;
        }
    }
    std::vector<unsigned> flat_seen;
    s.forEach([&](unsigned socket, unsigned bit) {
        flat_seen.push_back(socket * 64 + bit);
    });
    std::vector<unsigned> flat_want;
    for (unsigned b = 0; b < ref.size(); ++b) {
        if (ref.test(b))
            flat_want.push_back(b);
    }
    EXPECT_EQ(flat_seen, flat_want);
    EXPECT_EQ(s.empty(), ref.none());
}

} // namespace
} // namespace bp
