/**
 * @file
 * A copy of the plain full-scan weighted Lloyd k-means that shipped
 * before the Hamerly-bounded assignment step: k-means++ seeding,
 * every point scanned against every centroid on every pass, the BIC
 * score and the k sweep, all over `std::vector<std::vector<double>>`
 * points with their own distance loop.
 *
 * `tests/kmeans_oracle_test.cpp` proves the shipped clustering
 * bit-identical to this code. Its only additions are the two work
 * counters (assignment passes, and the n * k distances each pass
 * evaluates), which never feed back into a result. Do not speed up or
 * "fix" this code: it IS the identity baseline.
 */

#ifndef BP_TESTS_LEGACY_KMEANS_REFERENCE_H
#define BP_TESTS_LEGACY_KMEANS_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/kmeans.h"
#include "src/support/rng.h"

namespace bp {
namespace legacy {

inline double
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

inline std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>> &points,
              const std::vector<double> &weights, unsigned k, Rng &rng)
{
    const size_t n = points.size();
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);

    double total_weight = 0.0;
    for (const double w : weights)
        total_weight += w;
    double pick = rng.nextDouble() * total_weight;
    size_t first = 0;
    for (size_t i = 0; i < n; ++i) {
        pick -= weights[i];
        if (pick <= 0.0) {
            first = i;
            break;
        }
    }
    centroids.push_back(points[first]);

    std::vector<double> min_dist(n, std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        double dist_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            min_dist[i] = std::min(min_dist[i],
                                   squaredDistance(points[i],
                                                   centroids.back()));
            dist_sum += min_dist[i] * weights[i];
        }
        if (dist_sum <= 0.0) {
            centroids.push_back(points[first]);
            continue;
        }
        double target = rng.nextDouble() * dist_sum;
        size_t chosen = n - 1;
        for (size_t i = 0; i < n; ++i) {
            target -= min_dist[i] * weights[i];
            if (target <= 0.0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

inline KMeansResult
lloyd(const std::vector<std::vector<double>> &points,
      const std::vector<double> &weights,
      std::vector<std::vector<double>> centroids, unsigned max_iterations)
{
    const size_t n = points.size();
    const unsigned k = static_cast<unsigned>(centroids.size());
    const size_t dim = points[0].size();

    std::vector<unsigned> assignment(n, 0);
    uint64_t passes = 0;

    const auto assignPoints = [&]() {
        ++passes;
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::max();
            unsigned best_c = 0;
            for (unsigned c = 0; c < k; ++c) {
                const double d = squaredDistance(points[i], centroids[c]);
                if (d < best) {
                    best = d;
                    best_c = c;
                }
            }
            if (assignment[i] != best_c) {
                assignment[i] = best_c;
                changed = true;
            }
        }
        return changed;
    };

    bool consistent = false;
    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        if (!assignPoints() && iter > 0) {
            consistent = true;
            break;
        }

        std::vector<double> cluster_weight(k, 0.0);
        for (auto &centroid : centroids)
            std::fill(centroid.begin(), centroid.end(), 0.0);
        for (size_t i = 0; i < n; ++i) {
            const unsigned c = assignment[i];
            cluster_weight[c] += weights[i];
            for (size_t d = 0; d < dim; ++d)
                centroids[c][d] += weights[i] * points[i][d];
        }
        for (unsigned c = 0; c < k; ++c) {
            if (cluster_weight[c] > 0.0) {
                for (size_t d = 0; d < dim; ++d)
                    centroids[c][d] /= cluster_weight[c];
            } else {
                double worst = -1.0;
                size_t worst_i = 0;
                for (size_t i = 0; i < n; ++i) {
                    const double d = squaredDistance(
                        points[i], centroids[assignment[i]]);
                    if (d > worst) {
                        worst = d;
                        worst_i = i;
                    }
                }
                centroids[c] = points[worst_i];
            }
        }
    }
    if (!consistent)
        assignPoints();

    KMeansResult result;
    result.k = k;
    result.assignment = std::move(assignment);
    result.weightedSse = 0.0;
    for (size_t i = 0; i < n; ++i) {
        result.weightedSse += weights[i] *
            squaredDistance(points[i], centroids[result.assignment[i]]);
    }
    result.centroids = std::move(centroids);
    result.iterations = passes;
    result.distanceEvaluations = passes * n * k;
    return result;
}

inline KMeansResult
kmeansCluster(const std::vector<std::vector<double>> &points,
              const std::vector<double> &weights, unsigned k, uint64_t seed,
              unsigned max_iterations = 100, unsigned restarts = 5)
{
    KMeansResult best;
    best.weightedSse = std::numeric_limits<double>::max();
    uint64_t iterations = 0;
    uint64_t evaluations = 0;
    for (unsigned r = 0; r < std::max(1u, restarts); ++r) {
        Rng rng(hashMix(seed + r * 0x9E37u + k));
        KMeansResult candidate =
            lloyd(points, weights, seedCentroids(points, weights, k, rng),
                  max_iterations);
        iterations += candidate.iterations;
        evaluations += candidate.distanceEvaluations;
        if (candidate.weightedSse < best.weightedSse)
            best = std::move(candidate);
    }
    best.iterations = iterations;
    best.distanceEvaluations = evaluations;
    return best;
}

inline double
bicScore(const std::vector<std::vector<double>> &points,
         const std::vector<double> &weights, const KMeansResult &result)
{
    const size_t n_points = points.size();
    const double dim = static_cast<double>(points[0].size());
    const unsigned k = result.k;

    double total_weight = 0.0;
    for (const double w : weights)
        total_weight += w;
    const double n = static_cast<double>(n_points);
    const double weight_scale = n / total_weight;

    std::vector<double> cluster_n(k, 0.0);
    double sse = 0.0;
    for (size_t i = 0; i < n_points; ++i) {
        const double w = weights[i] * weight_scale;
        cluster_n[result.assignment[i]] += w;
        sse += w * squaredDistance(points[i],
                                   result.centroids[result.assignment[i]]);
    }

    const double denom = std::max(1.0, n - static_cast<double>(k));
    const double sigma2 = std::max(sse / (dim * denom), 1e-12);

    double log_likelihood = 0.0;
    for (unsigned c = 0; c < k; ++c) {
        if (cluster_n[c] <= 0.0)
            continue;
        log_likelihood += cluster_n[c] * std::log(cluster_n[c] / n);
    }
    log_likelihood -= n * dim / 2.0 * std::log(2.0 * M_PI * sigma2);
    log_likelihood -= dim * (n - k) / 2.0;

    const double params = static_cast<double>(k) * (dim + 1.0);
    return log_likelihood - params / 2.0 * std::log(n);
}

/** The k sweep, serially in k order; every k's result is kept. */
struct Sweep
{
    ClusteringResult result;
    std::vector<KMeansResult> byK;
};

inline Sweep
clusterSignatures(const std::vector<std::vector<double>> &points,
                  const std::vector<double> &weights,
                  const ClusteringConfig &config)
{
    const unsigned max_k =
        std::min<unsigned>(config.maxK,
                           static_cast<unsigned>(points.size()));
    Sweep sweep;
    sweep.byK.resize(max_k);
    sweep.result.bicByK.resize(max_k);
    for (unsigned idx = 0; idx < max_k; ++idx) {
        sweep.byK[idx] = kmeansCluster(points, weights, idx + 1, config.seed,
                                       config.maxIterations,
                                       config.restarts);
        sweep.result.bicByK[idx] =
            legacy::bicScore(points, weights, sweep.byK[idx]);
    }
    const unsigned chosen =
        chooseKByBic(sweep.result.bicByK, config.bicThreshold);
    sweep.result.best = sweep.byK[chosen - 1];
    return sweep;
}

} // namespace legacy
} // namespace bp

#endif // BP_TESTS_LEGACY_KMEANS_REFERENCE_H
