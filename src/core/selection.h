/**
 * @file
 * Barrierpoint selection: representatives and multipliers.
 *
 * After clustering, one region per cluster — the one closest to the
 * cluster centroid — becomes the barrierpoint. Its multiplier is the
 * ratio of the cluster's aggregate instruction count to the
 * barrierpoint's own instruction count (Section III-D), so that
 * concatenating scaled barrierpoints reconstructs the whole program.
 * Barrierpoints contributing less than a significance threshold of
 * total instructions are reported as insignificant (Table III).
 */

#ifndef BP_CORE_SELECTION_H
#define BP_CORE_SELECTION_H

#include <cstdint>
#include <vector>

#include "src/core/kmeans.h"

namespace bp {

class Serializer;
class Deserializer;

/** One selected representative region. */
struct BarrierPoint
{
    uint32_t region = 0;         ///< region index of the representative
    unsigned cluster = 0;        ///< cluster it represents
    double multiplier = 0.0;     ///< instruction-count scaling factor
    double weightFraction = 0.0; ///< cluster share of total instructions
    uint64_t instructions = 0;   ///< the barrierpoint's own length
    bool significant = true;     ///< weightFraction >= threshold

    void serialize(Serializer &s) const;
    void deserialize(Deserializer &d);
};

/** Complete output of the one-time BarrierPoint analysis. */
struct BarrierPointAnalysis
{
    std::vector<BarrierPoint> points;        ///< sorted by region index
    std::vector<unsigned> regionToPoint;     ///< region -> index in points
    std::vector<uint64_t> regionInstructions;
    std::vector<double> bicByK;
    unsigned chosenK = 0;

    uint64_t totalInstructions() const;
    unsigned numRegions() const;
    unsigned numSignificant() const;

    /**
     * The barrierpoint region indices, in points order — the identity
     * key of snapshot sets captured for this analysis (see
     * core/artifacts.h SnapshotArtifact::regions).
     */
    std::vector<uint32_t> pointRegions() const;

    /**
     * Simulation speedup running barrierpoints back to back versus
     * simulating every region — the reduction in total simulation
     * work (and hence machine resources for a fixed time budget).
     */
    double serialSpeedup() const;

    /**
     * Simulation speedup when all barrierpoints run in parallel:
     * total instruction count over the largest single barrierpoint.
     */
    double parallelSpeedup() const;

    /**
     * Machines needed to simulate every inter-barrier region in
     * parallel versus only the barrierpoints (the paper's 78x).
     */
    double resourceReduction() const;

    /** Bit-exact round trip: doubles travel as IEEE-754 images. */
    void serialize(Serializer &s) const;
    void deserialize(Deserializer &d);
};

/**
 * Pick representatives and compute multipliers: the batch driver of
 * ClusterSelectionState over an in-memory point set.
 *
 * @param clustering           assignment of regions to clusters
 * @param points               projected signatures (for proximity)
 * @param region_instructions  per-region aggregate instruction count
 * @param significance         weight fraction below which a
 *                             barrierpoint is insignificant
 */
BarrierPointAnalysis selectBarrierPoints(
    const ClusteringResult &clustering,
    const std::vector<std::vector<double>> &points,
    const std::vector<uint64_t> &region_instructions,
    double significance = 0.001);

/** regionToPoint sentinel for clusters no region maps to. */
constexpr unsigned kNoClusterPoint = 0xFFFFFFFFu;

/**
 * Per-cluster running state of the representative-selection policy —
 * the one implementation of it, with two drivers: selectBarrierPoints()
 * over an in-memory point set, and the streaming analyzer
 * (core/streaming.h) over its spilled point stream. The policy:
 * nearest-to-centroid, near-ties resolved to the median occurrence,
 * zero-instruction representatives re-picked among nonzero members.
 * It runs as three O(1)-memory passes over the regions in region
 * order:
 *
 *   1. observeDistance()  -> final best distances + cluster mass
 *   2. observeTieCount()  -> how many members near-tie that best
 *   3. observePick()      -> the median tie, by position
 *
 * All three passes must present every region of the cluster in
 * ascending region order with the *same* distances (the streaming
 * analyzer re-reads its spilled points, which round-trip bit-exactly).
 */
struct ClusterSelectionState
{
    /** dist near-ties best under the selection tolerance. */
    static bool withinTie(double dist, double best);

    // Pass 1 results.
    double bestDist = 0.0;
    double bestDistNonzero = 0.0;
    uint64_t instructions = 0;  ///< aggregate cluster instruction count
    double weight = 0.0;        ///< aggregate cluster weight
    bool hasMember = false;
    bool hasNonzero = false;    ///< any member with instructions > 0

    void observeDistance(double dist, uint64_t region_instructions,
                         double region_weight);

    // Pass 2 results.
    uint32_t tieCount = 0;
    uint32_t tieCountNonzero = 0;

    void observeTieCount(double dist, uint64_t region_instructions);

    // Pass 3 results.
    uint32_t pick = 0;
    uint32_t pickNonzero = 0;

    void observePick(uint32_t region, double dist,
                     uint64_t region_instructions);

  private:
    uint32_t tieSeen_ = 0;
    uint32_t tieSeenNonzero_ = 0;
};

/**
 * Build the analysis from finished per-cluster selection states:
 * representatives, multipliers, weight fractions and significance,
 * emitted in representative-region order.
 *
 * regionToPoint is sized to the region count but left for the driver
 * to fill (the streaming driver needs one more assignment pass over
 * its point stream); @p cluster_to_point receives the cluster ->
 * points-index map for that, kNoClusterPoint for clusters without
 * members.
 */
BarrierPointAnalysis finalizeSelection(
    const std::vector<ClusterSelectionState> &clusters,
    std::vector<uint64_t> region_instructions,
    std::vector<double> bic_by_k, double significance,
    std::vector<unsigned> &cluster_to_point);

} // namespace bp

#endif // BP_CORE_SELECTION_H
