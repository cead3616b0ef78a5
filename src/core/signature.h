/**
 * @file
 * Signature vectors: microarchitecture-independent region fingerprints.
 *
 * A Signature Vector (SV) abstracts over the similarity metric
 * (Section III-A of the paper): BBV only, LDV only, or the
 * concatenation of both, each normalized individually. Per-thread
 * vectors are concatenated (not summed) by default so that thread
 * heterogeneity separates regions. LDV buckets may be weighted by
 * 2^(n/v) to emphasize long-latency reuse distances.
 *
 * Signatures live in a huge sparse feature space (thread x basic
 * block, thread x distance bucket); random linear projection brings
 * them down to a small dense dimension for clustering, exactly as
 * SimPoint 3.2 does. Projection directions are generated on the fly
 * from a hash of (feature id, output dimension), so no projection
 * matrix is ever materialized and results are fully deterministic.
 */

#ifndef BP_CORE_SIGNATURE_H
#define BP_CORE_SIGNATURE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/profile/region_profiler.h"

namespace bp {

/** Which characteristics go into the signature vector. */
enum class SignatureKind {
    Bbv,       ///< code signature only
    Ldv,       ///< memory reuse signature only
    Combined,  ///< both, individually normalized then concatenated
};

/** @return parseable name: "bbv", "reuse_dist", "combine". */
const char *signatureKindName(SignatureKind kind);

/** Configuration of signature construction. */
struct SignatureConfig
{
    SignatureKind kind = SignatureKind::Combined;

    /**
     * LDV weighting exponent 1/v: bucket n is scaled by 2^(n/v)
     * before normalization. 0 disables weighting (the paper's
     * default); the paper also evaluates 1/2 and 1/5.
     */
    double ldvWeightInvV = 0.0;

    /**
     * Concatenate per-thread vectors (default, exposes thread
     * heterogeneity) instead of summing them (ablation).
     */
    bool concatenateThreads = true;
};

/** Sparse signature vector: (feature id, value) pairs. */
struct SparseSignature
{
    std::vector<std::pair<uint64_t, double>> features;
};

/** Build the (normalized, weighted) sparse SV of one region profile. */
SparseSignature buildSignature(const RegionProfile &profile,
                               const SignatureConfig &config);

/**
 * Random linear projection of a sparse signature to @p dim dense
 * dimensions using hash-derived directions in [-1, 1].
 */
std::vector<double> projectSignature(const SparseSignature &signature,
                                     unsigned dim, uint64_t seed);

/**
 * Squared Euclidean distance between two rows of @p dim doubles: the
 * library's one squared-distance loop. Every distance that k-means,
 * BIC scoring and barrierpoint selection compute goes through it, so
 * all of them sum the coordinates in the same (index) order and the
 * same pair of rows always gives the same bits.
 */
inline double
squaredDistance(const double *a, const double *b, size_t dim)
{
    double sum = 0.0;
    for (size_t i = 0; i < dim; ++i) {
        const double d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

/** squaredDistance() of two equal-length vectors. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

} // namespace bp

#endif // BP_CORE_SIGNATURE_H
