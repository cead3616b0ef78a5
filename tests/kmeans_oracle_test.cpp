/**
 * @file
 * Bit-identity of the Hamerly-bounded k-means against the plain
 * full-scan Lloyd it replaced (tests/legacy_kmeans_reference.h), on
 * the inputs where bounds are fragile: exact ties and coincident
 * centroids, zero weights and the empty-cluster reseed, the
 * iteration-limit exit, degenerate k and dimension, extreme scales,
 * and a tightly clustered set where pruning does most of its work.
 * Every case runs at pool sizes 1, 2 and 8, with kmeansCluster()
 * called directly so the parallel (non-nested) assignment step runs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kmeans.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "tests/legacy_kmeans_reference.h"

namespace bp {
namespace {

using Points = std::vector<std::vector<double>>;

uint64_t
bits(double value)
{
    return std::bit_cast<uint64_t>(value);
}

void
expectIdentical(const KMeansResult &actual, const KMeansResult &expected)
{
    EXPECT_EQ(actual.k, expected.k);
    EXPECT_EQ(actual.assignment, expected.assignment);
    ASSERT_EQ(actual.centroids.size(), expected.centroids.size());
    for (size_t c = 0; c < actual.centroids.size(); ++c) {
        ASSERT_EQ(actual.centroids[c].size(), expected.centroids[c].size());
        for (size_t d = 0; d < actual.centroids[c].size(); ++d) {
            EXPECT_EQ(bits(actual.centroids[c][d]),
                      bits(expected.centroids[c][d]))
                << "centroid " << c << " dim " << d;
        }
    }
    EXPECT_EQ(bits(actual.weightedSse), bits(expected.weightedSse));
    EXPECT_EQ(actual.iterations, expected.iterations);
    EXPECT_LE(actual.distanceEvaluations, expected.distanceEvaluations);
}

/** The pool sizes every case runs at. */
std::vector<std::unique_ptr<ThreadPool>>
pools()
{
    std::vector<std::unique_ptr<ThreadPool>> out;
    for (const unsigned threads : {1u, 2u, 8u})
        out.push_back(std::make_unique<ThreadPool>(threads));
    return out;
}

/** kmeansCluster() against the oracle for every k in @p ks. */
void
expectKMeansMatches(const Points &points, const std::vector<double> &weights,
                    const std::vector<unsigned> &ks, uint64_t seed,
                    unsigned max_iterations = 100, unsigned restarts = 5)
{
    const auto all_pools = pools();
    for (const unsigned k : ks) {
        const KMeansResult expected = legacy::kmeansCluster(
            points, weights, k, seed, max_iterations, restarts);
        for (const auto &pool : all_pools) {
            SCOPED_TRACE("k=" + std::to_string(k) + " pool=" +
                         std::to_string(pool->threadCount()) +
                         " max_iterations=" +
                         std::to_string(max_iterations));
            expectIdentical(kmeansCluster(points, weights, k, seed,
                                          max_iterations, restarts,
                                          pool.get()),
                            expected);
        }
    }
}

/** clusterSignatures() against the oracle's sweep. */
void
expectSweepMatches(const Points &points, const std::vector<double> &weights,
                   const ClusteringConfig &config)
{
    const legacy::Sweep expected =
        legacy::clusterSignatures(points, weights, config);
    for (const auto &pool : pools()) {
        SCOPED_TRACE("pool=" + std::to_string(pool->threadCount()));
        const ClusteringResult actual =
            clusterSignatures(points, weights, config, pool.get());
        ASSERT_EQ(actual.bicByK.size(), expected.result.bicByK.size());
        for (size_t k = 0; k < actual.bicByK.size(); ++k) {
            EXPECT_EQ(bits(actual.bicByK[k]),
                      bits(expected.result.bicByK[k]))
                << "k=" << k + 1;
        }
        EXPECT_EQ(actual.best.k, expected.result.best.k);
        expectIdentical(actual.best, expected.result.best);
    }
}

/** n points around each centre, Gaussian with @p spread per axis. */
Points
blobs(const Points &centres, unsigned n, double spread, uint64_t seed)
{
    Rng rng(seed);
    Points points;
    for (const auto &centre : centres) {
        for (unsigned i = 0; i < n; ++i) {
            std::vector<double> point(centre);
            for (double &x : point)
                x += spread * rng.nextGaussian();
            points.push_back(std::move(point));
        }
    }
    return points;
}

/** @p count centres uniformly in [0, side)^dim. */
Points
randomCentres(unsigned count, unsigned dim, double side, uint64_t seed)
{
    Rng rng(seed);
    Points centres(count, std::vector<double>(dim));
    for (auto &centre : centres) {
        for (double &x : centre)
            x = side * rng.nextDouble();
    }
    return centres;
}

/** The tightly clustered set: 2,400 points in 12 tight 10-D blobs. */
Points
tightlyClustered()
{
    return blobs(randomCentres(12, 10, 100.0, 5), 200, 0.5, 6);
}

TEST(KMeansOracleTest, DuplicatePointsGiveCoincidentCentroidsAndTies)
{
    // Three distinct points, repeated: for k > 3 k-means++ duplicates
    // a centroid, every scan ties exactly, and the duplicate's cluster
    // empties and reseeds.
    Points points;
    for (unsigned i = 0; i < 40; ++i) {
        points.push_back({1.0, 2.0});
        points.push_back({1.0, 2.0});
        points.push_back({4.0, -1.0});
        points.push_back({0.5, 7.0});
    }
    const std::vector<double> weights(points.size(), 1.0);
    expectKMeansMatches(points, weights, {1, 2, 3, 4, 5, 7}, 11);
    ClusteringConfig config;
    config.maxK = 8;
    expectSweepMatches(points, weights, config);
}

TEST(KMeansOracleTest, ZeroWeightsAndAZeroWeightClusterReseed)
{
    // Two weighted points and a band of weightless points between
    // them: the third centroid duplicates a seed, its cluster empties
    // and reseeds onto a weightless point, and from then on its
    // members all weigh zero, so it is reseeded every pass.
    Points points{{0.0, 0.0}, {10.0, 0.0}};
    std::vector<double> weights{3.0, 5.0};
    for (unsigned i = 0; i < 30; ++i) {
        points.push_back({4.0 + 0.07 * i, 0.1 * (i % 3)});
        weights.push_back(0.0);
    }
    expectKMeansMatches(points, weights, {1, 2, 3, 4}, 3);
    expectKMeansMatches(points, weights, {3}, 17, 7, 2);

    // Blobs where a third of the points weigh nothing.
    const Points mixed = blobs(randomCentres(4, 3, 20.0, 8), 60, 1.5, 9);
    std::vector<double> mixed_weights(mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i)
        mixed_weights[i] = i % 3 == 0 ? 0.0 : 1.0 + (i % 7);
    expectKMeansMatches(mixed, mixed_weights, {2, 4, 6}, 21);
    ClusteringConfig config;
    config.maxK = 8;
    expectSweepMatches(mixed, mixed_weights, config);
}

TEST(KMeansOracleTest, IterationLimitExit)
{
    const Points points = blobs(randomCentres(5, 4, 30.0, 12), 40, 4.0, 13);
    const std::vector<double> weights(points.size(), 2.0);
    for (const unsigned max_iterations : {1u, 2u, 3u})
        expectKMeansMatches(points, weights, {1, 3, 5, 8}, 29,
                            max_iterations);
}

TEST(KMeansOracleTest, DegenerateKAndDimension)
{
    const Points small = blobs(randomCentres(3, 3, 10.0, 14), 12, 1.0, 15);
    const std::vector<double> small_weights(small.size(), 1.0);
    expectKMeansMatches(small, small_weights,
                        {1, static_cast<unsigned>(small.size())}, 31);

    // 1-D points, including the sweep.
    Points line;
    Rng rng(16);
    for (unsigned i = 0; i < 150; ++i)
        line.push_back({(i % 5) * 10.0 + rng.nextGaussian()});
    std::vector<double> line_weights(line.size());
    for (size_t i = 0; i < line.size(); ++i)
        line_weights[i] = 1.0 + static_cast<double>(i % 4);
    expectKMeansMatches(line, line_weights, {1, 2, 5, 9}, 33);
    ClusteringConfig config;
    config.maxK = 10;
    expectSweepMatches(line, line_weights, config);
}

TEST(KMeansOracleTest, ScalesWherePruningIsOffOrTight)
{
    // All points at the origin: the slack is infinite and every pass
    // scans every point.
    const Points origin(20, std::vector<double>(3, 0.0));
    expectKMeansMatches(origin, std::vector<double>(origin.size(), 1.0),
                        {1, 3}, 35);

    // Squared distances overflow: pruning must switch off.
    Points huge = blobs(randomCentres(3, 2, 1.0, 17), 10, 0.1, 18);
    for (auto &point : huge) {
        for (double &x : point)
            x *= 1e160;
    }
    expectKMeansMatches(huge, std::vector<double>(huge.size(), 1.0),
                        {1, 2, 4}, 37);

    // Far from the origin and tiny: the slack scales with the
    // coordinates, not with the spread.
    for (const double scale : {1e-6, 1e6}) {
        Points shifted = blobs(randomCentres(4, 3, 10.0, 19), 30, 0.3, 20);
        for (auto &point : shifted) {
            for (double &x : point)
                x = scale * x + 1e3;
        }
        expectKMeansMatches(shifted,
                            std::vector<double>(shifted.size(), 1.0),
                            {2, 4, 6}, 39);
    }

    // Uniform noise: no structure, many near-ties.
    Points noise = randomCentres(300, 4, 1.0, 21);
    expectKMeansMatches(noise, std::vector<double>(noise.size(), 1.0),
                        {2, 7, 12}, 41);
}

TEST(KMeansOracleTest, TightlyClusteredSweep)
{
    const Points points = tightlyClustered();
    std::vector<double> weights(points.size());
    for (size_t i = 0; i < points.size(); ++i)
        weights[i] = 1.0 + static_cast<double>(i % 11);
    ClusteringConfig config;
    config.maxK = 16;
    config.restarts = 2;
    expectSweepMatches(points, weights, config);
    expectKMeansMatches(points, weights, {12, 16}, config.seed, 100, 2);
}

TEST(KMeansOracleTest, BoundsSkipMostDistancesOnTheClusteredSet)
{
    // A full scan evaluates n * k distances per pass. On well
    // separated clusters the bounds must skip most of them: if
    // pruning silently stops working, this fails rather than only
    // slowing the benchmark down.
    const Points points = tightlyClustered();
    const std::vector<double> weights(points.size(), 1.0);
    ThreadPool pool(2);
    uint64_t evaluations = 0;
    uint64_t full_scan = 0;
    for (unsigned k = 1; k <= 16; ++k) {
        const KMeansResult result =
            kmeansCluster(points, weights, k, 127, 100, 2, &pool);
        evaluations += result.distanceEvaluations;
        full_scan += points.size() * k * result.iterations;
    }
    EXPECT_LT(evaluations * 2, full_scan)
        << evaluations << " of " << full_scan << " distances evaluated";
}

TEST(KMeansOracleTest, WorkCountersIndependentOfPool)
{
    const Points points = blobs(randomCentres(6, 5, 40.0, 22), 150, 2.0, 23);
    const std::vector<double> weights(points.size(), 1.0);
    const KMeansResult serial = kmeansCluster(points, weights, 6, 43);
    EXPECT_GT(serial.iterations, 0u);
    EXPECT_GT(serial.distanceEvaluations, 0u);
    for (const auto &pool : pools()) {
        const KMeansResult parallel =
            kmeansCluster(points, weights, 6, 43, 100, 5, pool.get());
        EXPECT_EQ(parallel.iterations, serial.iterations);
        EXPECT_EQ(parallel.distanceEvaluations, serial.distanceEvaluations);
    }
}

} // namespace
} // namespace bp
