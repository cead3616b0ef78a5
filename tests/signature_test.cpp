/**
 * @file
 * Tests for signature vectors and random projection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/core/signature.h"

namespace bp {
namespace {

RegionProfile
profileWith(unsigned threads)
{
    RegionProfile profile;
    profile.threads.resize(threads);
    return profile;
}

double
l1Mass(const SparseSignature &sig)
{
    double total = 0.0;
    for (const auto &[id, value] : sig.features)
        total += value;
    return total;
}

TEST(SignatureTest, KindNames)
{
    EXPECT_STREQ(signatureKindName(SignatureKind::Bbv), "bbv");
    EXPECT_STREQ(signatureKindName(SignatureKind::Ldv), "reuse_dist");
    EXPECT_STREQ(signatureKindName(SignatureKind::Combined), "combine");
}

TEST(SignatureTest, BbvOnlyNormalizesToOne)
{
    RegionProfile p = profileWith(2);
    p.threads[0].bbv = {{1, 30}, {2, 10}};
    p.threads[1].bbv = {{1, 60}};
    SignatureConfig cfg;
    cfg.kind = SignatureKind::Bbv;
    const auto sig = buildSignature(p, cfg);
    EXPECT_EQ(sig.features.size(), 3u);
    EXPECT_NEAR(l1Mass(sig), 1.0, 1e-12);
}

TEST(SignatureTest, LdvOnlyIgnoresBbv)
{
    RegionProfile p = profileWith(1);
    p.threads[0].bbv = {{1, 100}};
    p.threads[0].ldv[ldvBucket(4)] += 10;
    SignatureConfig cfg;
    cfg.kind = SignatureKind::Ldv;
    const auto sig = buildSignature(p, cfg);
    EXPECT_EQ(sig.features.size(), 1u);
    EXPECT_NEAR(l1Mass(sig), 1.0, 1e-12);
}

TEST(SignatureTest, CombinedHasBothHalvesWeightedEqually)
{
    RegionProfile p = profileWith(1);
    p.threads[0].bbv = {{1, 5}};
    p.threads[0].ldv[ldvBucket(4)] += 10;
    p.threads[0].ldv[ldvBucket(100)] += 30;
    SignatureConfig cfg;
    cfg.kind = SignatureKind::Combined;
    const auto sig = buildSignature(p, cfg);
    EXPECT_EQ(sig.features.size(), 3u);
    EXPECT_NEAR(l1Mass(sig), 1.0, 1e-12);
}

TEST(SignatureTest, CombinedWithEmptyLdvStillHasUnitMass)
{
    // A region with no memory ops has an empty LDV half; the combined
    // signature must renormalize to unit mass rather than keeping the
    // 0.5 scale of the halved BBV (which skewed distances against
    // fully-populated regions).
    RegionProfile p = profileWith(2);
    p.threads[0].bbv = {{1, 40}};
    p.threads[1].bbv = {{2, 60}};
    SignatureConfig cfg;
    cfg.kind = SignatureKind::Combined;
    const auto sig = buildSignature(p, cfg);
    EXPECT_EQ(sig.features.size(), 2u);
    EXPECT_NEAR(l1Mass(sig), 1.0, 1e-12);
}

TEST(SignatureTest, CombinedWithEmptyBbvStillHasUnitMass)
{
    RegionProfile p = profileWith(1);
    p.threads[0].ldv[ldvBucket(4)] += 10;
    p.threads[0].ldv[ldvBucket(64)] += 5;
    SignatureConfig cfg;
    cfg.kind = SignatureKind::Combined;
    const auto sig = buildSignature(p, cfg);
    EXPECT_EQ(sig.features.size(), 2u);
    EXPECT_NEAR(l1Mass(sig), 1.0, 1e-12);
}

TEST(SignatureTest, ConcatenationSeparatesThreads)
{
    // Two regions: same aggregate mix, opposite per-thread behaviour.
    RegionProfile a = profileWith(2);
    a.threads[0].bbv = {{1, 100}};
    a.threads[1].bbv = {{2, 100}};
    RegionProfile b = profileWith(2);
    b.threads[0].bbv = {{2, 100}};
    b.threads[1].bbv = {{1, 100}};

    SignatureConfig concat;
    concat.kind = SignatureKind::Bbv;
    concat.concatenateThreads = true;
    SignatureConfig summed = concat;
    summed.concatenateThreads = false;

    const auto ca = projectSignature(buildSignature(a, concat), 15, 1);
    const auto cb = projectSignature(buildSignature(b, concat), 15, 1);
    const auto sa = projectSignature(buildSignature(a, summed), 15, 1);
    const auto sb = projectSignature(buildSignature(b, summed), 15, 1);

    EXPECT_GT(squaredDistance(ca, cb), 1e-6);
    EXPECT_NEAR(squaredDistance(sa, sb), 0.0, 1e-18);
}

TEST(SignatureTest, LdvWeightingShiftsMassToLongDistances)
{
    RegionProfile p = profileWith(1);
    p.threads[0].ldv[ldvBucket(2)] += 100;      // bucket 1
    p.threads[0].ldv[ldvBucket(1 << 10)] += 1;  // bucket 10
    SignatureConfig unweighted;
    unweighted.kind = SignatureKind::Ldv;
    SignatureConfig weighted = unweighted;
    weighted.ldvWeightInvV = 0.5;  // 1/v = 1/2

    const auto u = buildSignature(p, unweighted);
    const auto w = buildSignature(p, weighted);
    // Find the bucket-10 feature in both: its share must grow.
    double u10 = 0, w10 = 0;
    for (const auto &[id, value] : u.features) {
        if ((id & 0xFF) == 10)
            u10 = value;
    }
    for (const auto &[id, value] : w.features) {
        if ((id & 0xFF) == 10)
            w10 = value;
    }
    EXPECT_GT(w10, u10);
}

TEST(SignatureTest, ProjectionDeterministic)
{
    RegionProfile p = profileWith(1);
    p.threads[0].bbv = {{7, 3}};
    const auto sig = buildSignature(p, SignatureConfig{});
    const auto a = projectSignature(sig, 15, 99);
    const auto b = projectSignature(sig, 15, 99);
    EXPECT_EQ(a, b);
    const auto c = projectSignature(sig, 15, 100);
    EXPECT_GT(squaredDistance(a, c), 0.0);
}

TEST(SignatureTest, ProjectionIsLinear)
{
    SparseSignature x, y, sum;
    x.features = {{1, 0.25}, {2, 0.75}};
    y.features = {{2, 0.25}, {3, 0.75}};
    sum.features = {{1, 0.25}, {2, 1.0}, {3, 0.75}};
    const auto px = projectSignature(x, 8, 5);
    const auto py = projectSignature(y, 8, 5);
    const auto ps = projectSignature(sum, 8, 5);
    for (unsigned d = 0; d < 8; ++d)
        EXPECT_NEAR(ps[d], px[d] + py[d], 1e-12);
}

TEST(SignatureTest, IdenticalProfilesProjectIdentically)
{
    RegionProfile a = profileWith(2);
    a.threads[0].bbv = {{1, 10}};
    a.threads[1].bbv = {{1, 10}};
    a.threads[0].ldv[ldvBucket(16)] += 4;
    a.threads[1].ldv[ldvBucket(16)] += 4;
    RegionProfile b = a;
    const SignatureConfig cfg;
    const auto pa = projectSignature(buildSignature(a, cfg), 15, 1);
    const auto pb = projectSignature(buildSignature(b, cfg), 15, 1);
    EXPECT_NEAR(squaredDistance(pa, pb), 0.0, 1e-18);
}

TEST(SignatureTest, SquaredDistance)
{
    EXPECT_DOUBLE_EQ(squaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
    EXPECT_DOUBLE_EQ(squaredDistance({1.0}, {1.0}), 0.0);
}

TEST(SignatureTest, FeatureIdsNeverCollideAcrossSpacesAtMaxInputs)
{
    // Feature ids pack |space (bit 62)|thread (30 bits)|key (32 bits)|.
    // Drive the packing at its extremes — the widest thread slot the
    // library supports (64 concatenated threads) and the largest
    // 32-bit basic-block id — and require the BBV and LDV halves of a
    // combined signature to stay disjoint: a field overflowing its
    // width would leak into a neighbouring field and merge unrelated
    // features.
    const unsigned threads = 64;
    RegionProfile p = profileWith(threads);
    const uint32_t max_bb = 0xFFFFFFFFu;
    for (unsigned t = 0; t < threads; ++t) {
        p.threads[t].bbv = {{0, 1}, {max_bb, 1}};
        p.threads[t].ldv[ldvBucket(0)] += 1;         // bucket 0
        p.threads[t].ldv[ldvBucket(1ull << 39)] += 1;  // top bucket
    }
    SignatureConfig cfg;
    cfg.kind = SignatureKind::Combined;
    cfg.concatenateThreads = true;
    const auto sig = buildSignature(p, cfg);

    // 2 BBV ids + 2 LDV ids per thread, all distinct.
    EXPECT_EQ(sig.features.size(), 4u * threads);
    std::set<uint64_t> bbv_ids, ldv_ids;
    for (const auto &[id, value] : sig.features) {
        if (id & (1ull << 62))
            ldv_ids.insert(id);
        else
            bbv_ids.insert(id);
    }
    EXPECT_EQ(bbv_ids.size(), 2u * threads);
    EXPECT_EQ(ldv_ids.size(), 2u * threads);
    for (const uint64_t id : bbv_ids)
        EXPECT_EQ(ldv_ids.count(id), 0u);
    // The thread field tops out below the space bit: even the highest
    // thread slot with the highest key stays inside bits [0, 62).
    for (const uint64_t id : bbv_ids)
        EXPECT_LT(id, 1ull << 62);
}

} // namespace
} // namespace bp
