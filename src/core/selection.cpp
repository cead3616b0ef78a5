#include "src/core/selection.h"

#include <algorithm>

#include "src/core/signature.h"
#include "src/support/logging.h"
#include "src/support/serialize.h"

namespace bp {

void
BarrierPoint::serialize(Serializer &s) const
{
    s.u32(region);
    s.u32(cluster);
    s.f64(multiplier);
    s.f64(weightFraction);
    s.u64(instructions);
    s.boolean(significant);
}

void
BarrierPoint::deserialize(Deserializer &d)
{
    region = d.u32();
    cluster = d.u32();
    multiplier = d.f64();
    weightFraction = d.f64();
    instructions = d.u64();
    significant = d.boolean();
}

void
BarrierPointAnalysis::serialize(Serializer &s) const
{
    s.size(points.size());
    for (const BarrierPoint &point : points)
        point.serialize(s);
    s.u32vec(regionToPoint);
    s.u64vec(regionInstructions);
    s.f64vec(bicByK);
    s.u32(chosenK);
}

void
BarrierPointAnalysis::deserialize(Deserializer &d)
{
    points.clear();
    // u32 region and cluster, two f64, a u64 and a boolean.
    points.resize(d.size(4 + 4 + 8 + 8 + 8 + 1));
    for (BarrierPoint &point : points)
        point.deserialize(d);
    regionToPoint = d.u32vec();
    regionInstructions = d.u64vec();
    bicByK = d.f64vec();
    chosenK = d.u32();
}

uint64_t
BarrierPointAnalysis::totalInstructions() const
{
    uint64_t total = 0;
    for (const uint64_t count : regionInstructions)
        total += count;
    return total;
}

unsigned
BarrierPointAnalysis::numRegions() const
{
    return static_cast<unsigned>(regionInstructions.size());
}

std::vector<uint32_t>
BarrierPointAnalysis::pointRegions() const
{
    std::vector<uint32_t> regions;
    regions.reserve(points.size());
    for (const BarrierPoint &point : points)
        regions.push_back(point.region);
    return regions;
}

unsigned
BarrierPointAnalysis::numSignificant() const
{
    unsigned count = 0;
    for (const auto &point : points)
        count += point.significant ? 1 : 0;
    return count;
}

double
BarrierPointAnalysis::serialSpeedup() const
{
    uint64_t simulated = 0;
    for (const auto &point : points) {
        if (point.significant)
            simulated += point.instructions;
    }
    if (simulated == 0)
        return 1.0;
    return static_cast<double>(totalInstructions()) /
        static_cast<double>(simulated);
}

double
BarrierPointAnalysis::parallelSpeedup() const
{
    uint64_t largest = 0;
    for (const auto &point : points) {
        if (point.significant)
            largest = std::max(largest, point.instructions);
    }
    if (largest == 0)
        return 1.0;
    return static_cast<double>(totalInstructions()) /
        static_cast<double>(largest);
}

double
BarrierPointAnalysis::resourceReduction() const
{
    const unsigned significant = numSignificant();
    if (significant == 0)
        return 1.0;
    return static_cast<double>(numRegions()) /
        static_cast<double>(significant);
}

BarrierPointAnalysis
selectBarrierPoints(const ClusteringResult &clustering,
                    const std::vector<std::vector<double>> &points,
                    const std::vector<uint64_t> &region_instructions,
                    double significance)
{
    const KMeansResult &km = clustering.best;
    const size_t n = points.size();
    BP_ASSERT(km.assignment.size() == n &&
                  region_instructions.size() == n,
              "clustering/points/instruction-count size mismatch");

    // The batch driver of the selection passes: each region's distance
    // to its own centroid, computed once, so every pass sees the same
    // distances in region order.
    std::vector<double> dist(n);
    for (size_t i = 0; i < n; ++i)
        dist[i] = squaredDistance(points[i], km.centroids[km.assignment[i]]);

    std::vector<ClusterSelectionState> clusters(km.k);
    for (size_t i = 0; i < n; ++i)
        clusters[km.assignment[i]].observeDistance(
            dist[i], region_instructions[i],
            static_cast<double>(region_instructions[i]));
    for (size_t i = 0; i < n; ++i)
        clusters[km.assignment[i]].observeTieCount(dist[i],
                                                   region_instructions[i]);
    for (size_t i = 0; i < n; ++i)
        clusters[km.assignment[i]].observePick(static_cast<uint32_t>(i),
                                               dist[i],
                                               region_instructions[i]);

    std::vector<unsigned> cluster_to_point;
    BarrierPointAnalysis analysis =
        finalizeSelection(clusters, region_instructions, clustering.bicByK,
                          significance, cluster_to_point);
    for (size_t i = 0; i < n; ++i) {
        const unsigned j = cluster_to_point[km.assignment[i]];
        BP_ASSERT(j != kNoClusterPoint,
                  "region assigned to an unemitted cluster");
        analysis.regionToPoint[i] = j;
    }
    return analysis;
}

// ------------------------------------------------------ selection policy

bool
ClusterSelectionState::withinTie(double dist, double best)
{
    // Regions of a repetitive phase project to (nearly) identical
    // points; the median of the near-ties represents steady state
    // rather than a cold-start transient at the front of the cluster.
    return dist <= best + 1e-9 * (1.0 + best);
}

void
ClusterSelectionState::observeDistance(double dist,
                                       uint64_t region_instructions,
                                       double region_weight)
{
    if (!hasMember || dist < bestDist)
        bestDist = dist;
    if (region_instructions > 0 &&
        (!hasNonzero || dist < bestDistNonzero)) {
        bestDistNonzero = dist;
        hasNonzero = true;
    }
    hasMember = true;
    instructions += region_instructions;
    weight += region_weight;
}

void
ClusterSelectionState::observeTieCount(double dist,
                                       uint64_t region_instructions)
{
    if (withinTie(dist, bestDist))
        ++tieCount;
    if (region_instructions > 0 && hasNonzero &&
        withinTie(dist, bestDistNonzero))
        ++tieCountNonzero;
}

void
ClusterSelectionState::observePick(uint32_t region, double dist,
                                   uint64_t region_instructions)
{
    // The median tie by position: ties arrive in region order, so the
    // (tieCount / 2)-th one is the median occurrence.
    if (withinTie(dist, bestDist)) {
        if (tieSeen_ == tieCount / 2)
            pick = region;
        ++tieSeen_;
    }
    if (region_instructions > 0 && hasNonzero &&
        withinTie(dist, bestDistNonzero)) {
        if (tieSeenNonzero_ == tieCountNonzero / 2)
            pickNonzero = region;
        ++tieSeenNonzero_;
    }
}

BarrierPointAnalysis
finalizeSelection(const std::vector<ClusterSelectionState> &clusters,
                  std::vector<uint64_t> region_instructions,
                  std::vector<double> bic_by_k, double significance,
                  std::vector<unsigned> &cluster_to_point)
{
    const unsigned k = static_cast<unsigned>(clusters.size());

    BarrierPointAnalysis analysis;
    analysis.regionInstructions = std::move(region_instructions);
    analysis.bicByK = std::move(bic_by_k);
    analysis.chosenK = k;

    uint64_t total_instructions = 0;
    for (const uint64_t count : analysis.regionInstructions)
        total_instructions += count;

    // A representative with zero instructions gets multiplier 0, which
    // silently drops its whole cluster's instruction mass from every
    // reconstructed Estimate. When the cluster has mass, the pick falls
    // back to the best nonzero-instruction member; clusters whose every
    // member is empty keep the unrestricted pick and a zero multiplier
    // — there is no mass to lose.
    std::vector<uint32_t> representative(k, 0);
    for (unsigned c = 0; c < k; ++c) {
        const ClusterSelectionState &state = clusters[c];
        if (!state.hasMember)
            continue;
        uint32_t rep = state.pick;
        if (analysis.regionInstructions[rep] == 0 &&
            state.instructions > 0) {
            BP_ASSERT(state.hasNonzero,
                      "cluster with instructions has no nonzero member");
            rep = state.pickNonzero;
        }
        representative[c] = rep;
    }

    // Emit barrierpoints ordered by representative region index.
    std::vector<unsigned> cluster_order(k);
    for (unsigned c = 0; c < k; ++c)
        cluster_order[c] = c;
    std::sort(cluster_order.begin(), cluster_order.end(),
              [&](unsigned a, unsigned b) {
                  return representative[a] < representative[b];
              });

    // Every cluster with at least one member gets a barrierpoint, even
    // when its aggregate instruction count is zero: skipping it would
    // leave its regions without a barrierpoint. Only clusters no region
    // maps to (possible when k-means leaves a centroid unused) are
    // skipped.
    cluster_to_point.assign(k, kNoClusterPoint);
    for (const unsigned c : cluster_order) {
        if (!clusters[c].hasMember)
            continue;
        BarrierPoint point;
        point.region = representative[c];
        point.cluster = c;
        point.instructions = analysis.regionInstructions[point.region];
        point.multiplier = point.instructions > 0
            ? static_cast<double>(clusters[c].instructions) /
                static_cast<double>(point.instructions)
            : 0.0;
        point.weightFraction = total_instructions > 0
            ? static_cast<double>(clusters[c].instructions) /
                static_cast<double>(total_instructions)
            : 0.0;
        point.significant = point.weightFraction >= significance;
        cluster_to_point[c] =
            static_cast<unsigned>(analysis.points.size());
        analysis.points.push_back(point);
    }

    analysis.regionToPoint.assign(analysis.regionInstructions.size(),
                                  kNoClusterPoint);
    return analysis;
}

} // namespace bp
