/**
 * @file
 * Weighted k-means clustering with BIC model selection.
 *
 * Re-implements the clustering stage of SimPoint 3.2 for
 * variable-length intervals: points are weighted by their region's
 * aggregate instruction count, k is swept from 1 to maxK, and the
 * chosen k is the smallest whose BIC score reaches a fixed fraction
 * of the observed BIC range (SimPoint's selection rule).
 *
 * Lloyd's assignment step is Hamerly's ("Making k-means even faster",
 * SDM 2010), made exact to the bit. Every point i keeps an upper bound
 * u_i on its distance to its own centroid a and a lower bound l_i on
 * its distance to every other centroid; every centroid c keeps s_c,
 * half the distance to its nearest other centroid. When the centroids
 * move, u_i grows by a's displacement and l_i shrinks by the largest
 * displacement among the others (triangle inequality). A point skips
 * its scan only when
 *
 *     u_i + slack < max(s_a, l_i)
 *
 * Otherwise it re-tightens u_i with one exact distance and tests
 * again, and if that still fails it gets the full scan: every
 * centroid, strict <, ties to the lowest index. Without rounding,
 * passing the test means every other centroid is strictly farther
 * than a (directly through l_i, or because d(c, a) >= 2 s_a > 2 u_i),
 * so the full scan would return a. Exact ties, ties within the slack
 * and coincident centroids never pass it; they always reach the full
 * scan. The centroid update keeps its index-order sums, so the
 * assignments, centroids, SSE, BIC and chosen k are bit-identical to a
 * full scan on every pass (tests/kmeans_oracle_test.cpp holds that
 * baseline).
 *
 * The slack carries that argument over to the computed values, which
 * are rounded. Let eps = DBL_EPSILON / 2 and R = sqrt(dim) times the
 * largest |coordinate| among the points and every centroid of the run
 * so far: all of them lie within R of the origin, so every distance is
 * at most 2R, and every bound is at most 4R when tested (at most 2R
 * after its last test, plus one displacement of at most 2R). Then
 *   - a computed distance (dim rounded differences, squares and sums,
 *     and a square root) is off by at most (dim + 6) eps R;
 *   - u_i and l_i collect that error once when set and once per
 *     centroid update since (the displacement), plus one rounded
 *     addition of at most 4 eps R per update, and a run has at most
 *     max_iterations updates;
 *   - s_a is one computed distance, halved;
 *   - the full scan's computed squared distances put a strictly first
 *     once the true distances to a and to any other centroid differ by
 *     more than (2 dim + 5) eps R.
 * Summed over u_i, l_i or s_a, and that last margin, the rounding stays
 * below (max_iterations + 2) (dim + 9) DBL_EPSILON R. The slack is four
 * times that. It is infinite, so that every point gets the full scan,
 * when a coordinate is not finite or R lies outside [1e-100, 1e150],
 * where squared distances could overflow or underflow.
 */

#ifndef BP_CORE_KMEANS_H
#define BP_CORE_KMEANS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bp {

class ThreadPool;

/** Parameters of the clustering stage (the paper's Table II). */
struct ClusteringConfig
{
    unsigned dim = 15;           ///< projected dimensions (-dim)
    unsigned maxK = 20;          ///< maximum clusters (-maxK)
    unsigned restarts = 5;       ///< k-means restarts per k
    unsigned maxIterations = 100;
    double bicThreshold = 0.9;   ///< fraction of the BIC range
    uint64_t seed = 127;         ///< projection and k-means seed
};

/**
 * Result of one weighted k-means call: the clustering of its best
 * restart, and the work of all its restarts. The work counters are
 * exact and the same for any pool.
 */
struct KMeansResult
{
    unsigned k = 0;
    std::vector<unsigned> assignment;            ///< point -> cluster
    std::vector<std::vector<double>> centroids;  ///< k x dim
    double weightedSse = 0.0;
    /** Assignment passes (Lloyd iterations, counting the final pass
     *  that confirms convergence or re-pairs the assignment with the
     *  centroids), summed over restarts. A full scan evaluates
     *  n * k distances per pass. */
    uint64_t iterations = 0;
    /** Point-to-centroid distances those passes evaluated. */
    uint64_t distanceEvaluations = 0;
};

/**
 * Weighted k-means (k-means++ seeding, Lloyd iterations).
 *
 * @param points  n points of equal dimension
 * @param weights n non-negative weights
 * @param k       number of clusters (1 <= k <= n)
 * @param seed    deterministic seeding
 * @param pool    optional worker pool for the assignment step, which
 *                it runs in chunks of points; the result is
 *                bit-identical with or without it
 */
KMeansResult kmeansCluster(const std::vector<std::vector<double>> &points,
                           const std::vector<double> &weights, unsigned k,
                           uint64_t seed, unsigned max_iterations = 100,
                           unsigned restarts = 5,
                           ThreadPool *pool = nullptr);

/**
 * Bayesian Information Criterion of a clustering (x-means style,
 * spherical Gaussians, weights as effective counts). Larger is
 * better.
 */
double bicScore(const std::vector<std::vector<double>> &points,
                const std::vector<double> &weights,
                const KMeansResult &result);

/** Outcome of the k sweep. */
struct ClusteringResult
{
    KMeansResult best;
    std::vector<double> bicByK;  ///< index k-1 -> BIC score
};

/**
 * Sweep k = 1..maxK and pick per the SimPoint BIC-threshold rule.
 *
 * With a pool, the per-k runs execute concurrently (each k's RNG is
 * seeded independently, so the sweep is order-free) and results are
 * collected in k order — output is bit-identical to the serial sweep.
 */
ClusteringResult clusterSignatures(
    const std::vector<std::vector<double>> &points,
    const std::vector<double> &weights, const ClusteringConfig &config,
    ThreadPool *pool = nullptr);

/**
 * The SimPoint selection rule on a finished BIC sweep: the smallest k
 * whose score reaches @p threshold of the observed score range.
 * Shared by the batch sweep and the streaming mini-batch sweep so the
 * two modes can never drift on the model-selection policy.
 *
 * @param bic_by_k index k-1 -> BIC score (non-empty)
 * @return chosen k, 1-based
 */
unsigned chooseKByBic(const std::vector<double> &bic_by_k,
                      double threshold);

/**
 * bicScore() computed from streaming aggregates instead of a
 * materialized point set: per-cluster total weight plus the total
 * weighted SSE are enough. Used by the streaming analyzer, whose
 * passes accumulate exactly these statistics in region order.
 *
 * (Kept separate from bicScore() on purpose: folding the weight
 * normalization into the per-point loop there would change its
 * floating-point accumulation order and break the batch path's
 * bit-identity pin.)
 */
double bicFromStats(uint64_t n_points, unsigned dim,
                    const std::vector<double> &cluster_weight,
                    double weighted_sse);

/**
 * Mini-batch k-means (Sculley-style) for streaming clustering: one
 * model holds k centroids plus their cumulative update weights, and
 * update() folds in one batch of points.
 *
 * Determinism contract: a batch is aggregated first (per-cluster
 * weighted sums, accumulated serially in point order) and the
 * centroids move once per batch via the cumulative-weight learning
 * rate c += (batchW / (cumW + batchW)) * (batchMean - c). Assignment
 * ties break toward the lowest centroid index. Feeding the same
 * batches in the same order therefore yields bit-identical centroids
 * regardless of thread count — the streaming analyzer's batches are
 * defined by region index, never arrival order.
 */
class MiniBatchLloyd
{
  public:
    /**
     * @param centroids       k x dim initial centroids (k-means++ or
     *                        a Lloyd run on a reservoir sample)
     * @param initial_weights optional per-centroid starting mass
     *                        (e.g. the reservoir cluster weights), so
     *                        a well-trained seed is not obliterated by
     *                        the first batch; empty = zero mass
     */
    explicit MiniBatchLloyd(std::vector<std::vector<double>> centroids,
                            std::vector<double> initial_weights = {});

    unsigned k() const { return static_cast<unsigned>(centroids_.size()); }
    unsigned dim() const { return dim_; }
    const std::vector<std::vector<double>> &centroids() const
    {
        return centroids_;
    }

    /**
     * Nearest centroid of a flat @p point (dim doubles); ties break
     * toward the lowest index. @p dist_out receives the squared
     * distance when non-null.
     */
    unsigned nearest(const double *point,
                     double *dist_out = nullptr) const;

    /**
     * Fold one batch of @p count flat points (count x dim doubles,
     * weights aligned) into the model. Zero-weight points are
     * assigned but move nothing — matching the batch pipeline, where
     * they never pull a centroid either.
     */
    void update(const double *points, const double *weights, size_t count);

  private:
    std::vector<std::vector<double>> centroids_;
    std::vector<double> cumulativeWeight_;  ///< per-centroid mass
    unsigned dim_ = 0;
    // Batch-aggregation scratch, reused across update() calls.
    std::vector<double> batchSum_;     ///< k x dim
    std::vector<double> batchWeight_;  ///< k
};

} // namespace bp

#endif // BP_CORE_KMEANS_H
