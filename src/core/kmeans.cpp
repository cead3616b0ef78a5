#include "src/core/kmeans.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "src/core/signature.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace bp {

namespace {

/** Points per dispatched chunk of the assignment step. */
constexpr size_t kAssignChunk = 256;

/** Largest |v[i]| of @p count values; infinity when one is NaN. */
double
maxAbs(const double *v, size_t count)
{
    double largest = 0.0;
    for (size_t i = 0; i < count; ++i) {
        const double a = std::fabs(v[i]);
        if (!(a <= largest))
            largest = std::isnan(a) ? std::numeric_limits<double>::infinity()
                                    : a;
    }
    return largest;
}

/**
 * The points of one clustering call, copied once into a row-major
 * n x dim block that every k, restart and pass walks.
 */
struct FlatPoints
{
    explicit FlatPoints(const std::vector<std::vector<double>> &points)
        : n(points.size()), dim(points[0].size())
    {
        rows.reserve(n * dim);
        for (const auto &point : points) {
            BP_ASSERT(point.size() == dim, "dimension mismatch");
            rows.insert(rows.end(), point.begin(), point.end());
        }
        maxAbsCoordinate = maxAbs(rows.data(), rows.size());
    }

    const double *row(size_t i) const { return rows.data() + i * dim; }

    size_t n;
    size_t dim;
    std::vector<double> rows;
    double maxAbsCoordinate;
};

/**
 * Absolute rounding slack of the bound test (kmeans.h explains the
 * derivation) when no coordinate of a point or centroid exceeds
 * @p max_abs in magnitude. Infinite, so that no point skips its scan,
 * when a coordinate is not finite or squared distances could overflow
 * or underflow.
 */
double
boundSlack(double max_abs, size_t dim, unsigned max_iterations)
{
    const double d = static_cast<double>(dim);
    const double radius = std::sqrt(d) * max_abs;
    if (!(radius > 1e-100 && radius < 1e150))
        return std::numeric_limits<double>::infinity();
    return 4.0 * (max_iterations + 2.0) * (d + 9.0) * DBL_EPSILON * radius;
}

/** Weighted k-means++ seeding; @return k x dim centroids, row-major. */
std::vector<double>
seedCentroids(const FlatPoints &points, const std::vector<double> &weights,
              unsigned k, Rng &rng)
{
    const size_t n = points.n;
    const size_t dim = points.dim;
    std::vector<double> centroids;
    centroids.reserve(size_t{k} * dim);
    const auto append = [&](size_t i) {
        centroids.insert(centroids.end(), points.row(i),
                         points.row(i) + dim);
    };

    // First centroid: weighted random point.
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
    append(first);

    std::vector<double> min_dist(n, std::numeric_limits<double>::max());
    for (unsigned c = 1; c < k; ++c) {
        const double *last = centroids.data() + (c - 1) * dim;
        double dist_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            min_dist[i] = std::min(min_dist[i],
                                   squaredDistance(points.row(i), last, dim));
            dist_sum += min_dist[i] * weights[i];
        }
        if (dist_sum <= 0.0) {
            // All remaining points coincide with a centroid; duplicate.
            append(first);
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
        append(chosen);
    }
    return centroids;
}

/**
 * One full Lloyd run from the given k x dim row-major centroids, with
 * the Hamerly-bounded assignment step described in kmeans.h.
 */
KMeansResult
lloyd(const FlatPoints &points, const std::vector<double> &weights,
      unsigned k, std::vector<double> centroids, unsigned max_iterations,
      ThreadPool *pool)
{
    const size_t n = points.n;
    const size_t dim = points.dim;
    const auto centroid = [&](unsigned c) {
        return centroids.data() + c * dim;
    };

    std::vector<unsigned> assignment(n, 0);
    // upper[i] bounds point i's distance to its own centroid from
    // above, lower[i] its distance to every other centroid from below;
    // half_gap[c] is half the distance from c to its nearest other
    // centroid, shift[c] how far c moved in the last update, and
    // previous holds the centroids of the last pass.
    std::vector<double> upper(n);
    std::vector<double> lower(n);
    std::vector<double> half_gap(k);
    std::vector<double> shift(k);
    std::vector<double> previous;
    // Largest |coordinate| of the points and of every centroid so far.
    double max_abs = points.maxAbsCoordinate;

    const size_t chunks = (n + kAssignChunk - 1) / kAssignChunk;
    std::vector<uint64_t> chunk_evaluations(chunks);
    std::vector<char> chunk_changed(chunks);
    uint64_t passes = 0;
    uint64_t evaluations = 0;

    // Assignment step. A point keeps its centroid without a scan only
    // when its bounds prove that the full scan would return that
    // centroid; otherwise it gets that scan: every centroid, strict <,
    // ties to the lowest index. Each point depends only on immutable
    // centroid state and writes only its own slots, so the chunks run
    // in any order with identical results. @return true when any
    // assignment moved.
    const auto assignPoints = [&]() {
        const bool bounded = !previous.empty();
        double slack = 0.0;
        double largest_shift = 0.0;
        double second_shift = 0.0;
        unsigned largest_c = 0;
        if (bounded) {
            max_abs = std::max(max_abs,
                               maxAbs(centroids.data(), centroids.size()));
            slack = boundSlack(max_abs, dim, max_iterations);
            for (unsigned c = 0; c < k; ++c) {
                shift[c] = std::sqrt(squaredDistance(
                    previous.data() + c * dim, centroid(c), dim));
                if (shift[c] > largest_shift) {
                    second_shift = largest_shift;
                    largest_shift = shift[c];
                    largest_c = c;
                } else if (shift[c] > second_shift) {
                    second_shift = shift[c];
                }
            }
            for (unsigned c = 0; c < k; ++c) {
                double gap = std::numeric_limits<double>::infinity();
                for (unsigned other = 0; other < k; ++other) {
                    if (other != c)
                        gap = std::min(gap, squaredDistance(
                                                centroid(c), centroid(other),
                                                dim));
                }
                half_gap[c] = 0.5 * std::sqrt(gap);
            }
        }

        parallelFor(pool, 0, chunks, [&](uint64_t chunk) {
            const size_t end = std::min(n, (chunk + 1) * kAssignChunk);
            uint64_t chunk_work = 0;
            bool moved = false;
            for (size_t i = chunk * kAssignChunk; i < end; ++i) {
                const double *point = points.row(i);
                const unsigned own = assignment[i];
                // Distance to the own centroid once re-tightened; the
                // scan reuses it (the kernel gives the same bits).
                double own_d = 0.0;
                if (bounded) {
                    upper[i] += shift[own];
                    lower[i] -= own == largest_c ? second_shift
                                                 : largest_shift;
                    const double bound = std::max(half_gap[own], lower[i]);
                    if (upper[i] + slack < bound)
                        continue;
                    own_d = squaredDistance(point, centroid(own), dim);
                    upper[i] = std::sqrt(own_d);
                    if (upper[i] + slack < bound) {
                        ++chunk_work;
                        continue;
                    }
                }
                double best = std::numeric_limits<double>::max();
                double runner_up = std::numeric_limits<double>::infinity();
                unsigned best_c = 0;
                for (unsigned c = 0; c < k; ++c) {
                    const double d = bounded && c == own
                        ? own_d
                        : squaredDistance(point, centroid(c), dim);
                    if (d < best) {
                        runner_up = best;
                        best = d;
                        best_c = c;
                    } else if (d < runner_up) {
                        runner_up = d;
                    }
                }
                chunk_work += k;
                upper[i] = std::sqrt(best);
                lower[i] = std::sqrt(runner_up);
                if (own != best_c) {
                    assignment[i] = best_c;
                    moved = true;
                }
            }
            chunk_evaluations[chunk] = chunk_work;
            chunk_changed[chunk] = moved;
        });

        previous = centroids;
        ++passes;
        bool changed = false;
        for (size_t chunk = 0; chunk < chunks; ++chunk) {
            evaluations += chunk_evaluations[chunk];
            changed = changed || chunk_changed[chunk];
        }
        return changed;
    };

    // True when the loop exits converged: the final assignment was
    // made against the current centroids, so scoring them together is
    // consistent.
    bool consistent = false;

    std::vector<double> cluster_weight(k);
    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        if (!assignPoints() && iter > 0) {
            consistent = true;
            break;
        }

        // Recompute weighted centroids.
        std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
        std::fill(centroids.begin(), centroids.end(), 0.0);
        for (size_t i = 0; i < n; ++i) {
            const unsigned c = assignment[i];
            const double *point = points.row(i);
            double *sum = centroid(c);
            cluster_weight[c] += weights[i];
            for (size_t d = 0; d < dim; ++d)
                sum[d] += weights[i] * point[d];
        }
        for (unsigned c = 0; c < k; ++c) {
            double *mean = centroid(c);
            if (cluster_weight[c] > 0.0) {
                for (size_t d = 0; d < dim; ++d)
                    mean[d] /= cluster_weight[c];
            } else {
                // Empty cluster: reseed to the point farthest from its
                // centroid.
                double worst = -1.0;
                size_t worst_i = 0;
                for (size_t i = 0; i < n; ++i) {
                    const double d = squaredDistance(
                        points.row(i), centroid(assignment[i]), dim);
                    if (d > worst) {
                        worst = d;
                        worst_i = i;
                    }
                }
                std::copy(points.row(worst_i), points.row(worst_i) + dim,
                          mean);
            }
        }
    }

    // Out of iterations: the centroid update ran after the last
    // assignment, so the assignments no longer pair with the
    // centroids. One extra assignment pass restores the invariant the
    // BIC k-sweep relies on: weightedSse always scores assignments
    // against the centroids they were made with.
    if (!consistent)
        assignPoints();

    KMeansResult result;
    result.k = k;
    result.weightedSse = 0.0;
    for (size_t i = 0; i < n; ++i) {
        result.weightedSse += weights[i] *
            squaredDistance(points.row(i), centroid(assignment[i]), dim);
    }
    result.assignment = std::move(assignment);
    result.centroids.reserve(k);
    for (unsigned c = 0; c < k; ++c)
        result.centroids.emplace_back(centroid(c), centroid(c) + dim);
    result.iterations = passes;
    result.distanceEvaluations = evaluations;
    return result;
}

/** kmeansCluster() on flattened points. */
KMeansResult
kmeansFlat(const FlatPoints &points, const std::vector<double> &weights,
           unsigned k, uint64_t seed, unsigned max_iterations,
           unsigned restarts, ThreadPool *pool)
{
    KMeansResult best;
    best.weightedSse = std::numeric_limits<double>::max();
    uint64_t iterations = 0;
    uint64_t evaluations = 0;
    for (unsigned r = 0; r < std::max(1u, restarts); ++r) {
        Rng rng(hashMix(seed + r * 0x9E37u + k));
        KMeansResult candidate =
            lloyd(points, weights, k, seedCentroids(points, weights, k, rng),
                  max_iterations, pool);
        iterations += candidate.iterations;
        evaluations += candidate.distanceEvaluations;
        if (candidate.weightedSse < best.weightedSse)
            best = std::move(candidate);
    }
    best.iterations = iterations;
    best.distanceEvaluations = evaluations;
    return best;
}

} // namespace

KMeansResult
kmeansCluster(const std::vector<std::vector<double>> &points,
              const std::vector<double> &weights, unsigned k, uint64_t seed,
              unsigned max_iterations, unsigned restarts, ThreadPool *pool)
{
    BP_ASSERT(!points.empty(), "k-means requires points");
    BP_ASSERT(points.size() == weights.size(), "weights/points mismatch");
    BP_ASSERT(k >= 1 && k <= points.size(), "k out of range");
    return kmeansFlat(FlatPoints(points), weights, k, seed, max_iterations,
                      restarts, pool);
}

double
bicScore(const std::vector<std::vector<double>> &points,
         const std::vector<double> &weights, const KMeansResult &result)
{
    const size_t n_points = points.size();
    const double dim = static_cast<double>(points[0].size());
    const unsigned k = result.k;

    // Normalize weights to behave like n_points effective samples.
    double total_weight = 0.0;
    for (const double w : weights)
        total_weight += w;
    BP_ASSERT(total_weight > 0.0, "BIC requires positive total weight");
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

ClusteringResult
clusterSignatures(const std::vector<std::vector<double>> &points,
                  const std::vector<double> &weights,
                  const ClusteringConfig &config, ThreadPool *pool)
{
    BP_ASSERT(!points.empty(), "clustering requires points");
    const unsigned max_k =
        std::min<unsigned>(config.maxK,
                           static_cast<unsigned>(points.size()));

    // The k sweep is the coarsest parallel grain: every k is seeded
    // independently, so the runs are order-free and results collect
    // in k order. Inner lloyd() calls detect they are inside the
    // sweep's parallelFor (worker or participating caller) and fall
    // back to serial, so the two levels compose safely; when the
    // sweep is too small to dispatch, the assignment step's own
    // parallelism takes over instead. Every k and restart reads one
    // row-major copy of the points.
    const FlatPoints flat(points);
    BP_ASSERT(flat.n == weights.size(), "weights/points mismatch");
    std::vector<KMeansResult> by_k(max_k);
    ClusteringResult out;
    out.bicByK.resize(max_k);
    parallelFor(pool, 0, max_k, [&](uint64_t idx) {
        const unsigned k = static_cast<unsigned>(idx) + 1;
        by_k[idx] = kmeansFlat(flat, weights, k, config.seed,
                               config.maxIterations, config.restarts, pool);
        out.bicByK[idx] = bicScore(points, weights, by_k[idx]);
    });

    const unsigned chosen = chooseKByBic(out.bicByK, config.bicThreshold);
    out.best = std::move(by_k[chosen - 1]);
    return out;
}

unsigned
chooseKByBic(const std::vector<double> &bic_by_k, double threshold)
{
    BP_ASSERT(!bic_by_k.empty(), "BIC selection requires scores");
    const unsigned max_k = static_cast<unsigned>(bic_by_k.size());

    // SimPoint rule: smallest k whose BIC reaches threshold of the
    // observed score range.
    const double lo = *std::min_element(bic_by_k.begin(), bic_by_k.end());
    const double hi = *std::max_element(bic_by_k.begin(), bic_by_k.end());
    const double range = hi - lo;
    unsigned chosen = max_k;
    for (unsigned k = 1; k <= max_k; ++k) {
        const double score = bic_by_k[k - 1];
        if (range <= 0.0 || (score - lo) >= threshold * range) {
            chosen = k;
            break;
        }
    }
    return chosen;
}

double
bicFromStats(uint64_t n_points, unsigned dim_in,
             const std::vector<double> &cluster_weight, double weighted_sse)
{
    const unsigned k = static_cast<unsigned>(cluster_weight.size());
    const double dim = static_cast<double>(dim_in);

    double total_weight = 0.0;
    for (const double w : cluster_weight)
        total_weight += w;
    BP_ASSERT(total_weight > 0.0, "BIC requires positive total weight");

    // Same normalization as bicScore(): weights behave like n_points
    // effective samples. Scaling the aggregates instead of each point
    // gives a (tolerably) different rounding, which is fine here —
    // streaming scores are only ever compared with each other.
    const double n = static_cast<double>(n_points);
    const double weight_scale = n / total_weight;
    const double sse = weighted_sse * weight_scale;

    const double denom = std::max(1.0, n - static_cast<double>(k));
    const double sigma2 = std::max(sse / (dim * denom), 1e-12);

    double log_likelihood = 0.0;
    for (unsigned c = 0; c < k; ++c) {
        const double cluster_n = cluster_weight[c] * weight_scale;
        if (cluster_n <= 0.0)
            continue;
        log_likelihood += cluster_n * std::log(cluster_n / n);
    }
    log_likelihood -= n * dim / 2.0 * std::log(2.0 * M_PI * sigma2);
    log_likelihood -= dim * (n - k) / 2.0;

    const double params = static_cast<double>(k) * (dim + 1.0);
    return log_likelihood - params / 2.0 * std::log(n);
}

MiniBatchLloyd::MiniBatchLloyd(std::vector<std::vector<double>> centroids,
                               std::vector<double> initial_weights)
    : centroids_(std::move(centroids)),
      cumulativeWeight_(std::move(initial_weights))
{
    BP_ASSERT(!centroids_.empty(), "mini-batch k-means requires centroids");
    dim_ = static_cast<unsigned>(centroids_[0].size());
    for (const auto &c : centroids_)
        BP_ASSERT(c.size() == dim_, "centroid dimension mismatch");
    if (cumulativeWeight_.empty())
        cumulativeWeight_.assign(centroids_.size(), 0.0);
    BP_ASSERT(cumulativeWeight_.size() == centroids_.size(),
              "initial weights / centroids mismatch");
    batchSum_.assign(centroids_.size() * dim_, 0.0);
    batchWeight_.assign(centroids_.size(), 0.0);
}

unsigned
MiniBatchLloyd::nearest(const double *point, double *dist_out) const
{
    double best = std::numeric_limits<double>::max();
    unsigned best_c = 0;
    for (unsigned c = 0; c < k(); ++c) {
        const double d = squaredDistance(point, centroids_[c].data(), dim_);
        if (d < best) {
            best = d;
            best_c = c;
        }
    }
    if (dist_out)
        *dist_out = best;
    return best_c;
}

void
MiniBatchLloyd::update(const double *points, const double *weights,
                       size_t count)
{
    std::fill(batchSum_.begin(), batchSum_.end(), 0.0);
    std::fill(batchWeight_.begin(), batchWeight_.end(), 0.0);
    for (size_t i = 0; i < count; ++i) {
        const double *point = points + i * dim_;
        const unsigned c = nearest(point);
        const double w = weights[i];
        batchWeight_[c] += w;
        double *sum = batchSum_.data() + c * dim_;
        for (unsigned d = 0; d < dim_; ++d)
            sum[d] += w * point[d];
    }
    for (unsigned c = 0; c < k(); ++c) {
        const double batch_w = batchWeight_[c];
        if (batch_w <= 0.0)
            continue;
        const double total = cumulativeWeight_[c] + batch_w;
        const double eta = batch_w / total;
        const double *sum = batchSum_.data() + c * dim_;
        for (unsigned d = 0; d < dim_; ++d) {
            const double batch_mean = sum[d] / batch_w;
            centroids_[c][d] += eta * (batch_mean - centroids_[c][d]);
        }
        cumulativeWeight_[c] = total;
    }
}

} // namespace bp
