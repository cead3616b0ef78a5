#include "src/core/streaming.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

#include "src/core/signature.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/serialize.h"
#include "src/support/thread_pool.h"

namespace bp {

namespace {

/** Odd multiplier keeps region -> key injective before the mix. */
constexpr uint64_t kReservoirStride = 0x9E3779B97F4A7C15ull;

/** Mini-batch training passes over the point stream. */
constexpr unsigned kEpochs = 2;

/**
 * An anonymous read/write scratch file under @p dir ("" = the system
 * temp directory). mkstemp() creates it exclusively with mode 0600,
 * so it never follows a planted link, and the immediate unlink()
 * leaves no name another process can open or a killed run can leave
 * behind.
 */
std::FILE *
openScratchFile(const std::string &dir)
{
    std::error_code ec;
    const std::filesystem::path base =
        dir.empty() ? std::filesystem::temp_directory_path(ec)
                    : std::filesystem::path(dir);
    std::string path = (base / "bp-stream-XXXXXX").string();
    const int fd = ec ? -1 : ::mkstemp(path.data());
    if (fd < 0)
        throw SerializeError("cannot create a signature spill in '" +
                             base.string() + "'");
    ::unlink(path.c_str());
    std::FILE *file = ::fdopen(fd, "w+b");
    if (!file) {
        ::close(fd);
        throw SerializeError("cannot open the signature spill");
    }
    return file;
}

uint64_t
clampU64(uint64_t v, uint64_t lo, uint64_t hi)
{
    return std::min(std::max(v, lo), hi);
}

} // namespace

uint64_t
streamingHash(const StreamingConfig &config)
{
    Serializer s;
    s.u64(config.memoryBudgetBytes);
    s.u32(config.batchSize);
    s.u32(config.reservoirSize);
    return fnv1aHash(s.buffer().data(), s.buffer().size());
}

StreamingAnalyzer::StreamingAnalyzer(unsigned region_count,
                                     const BarrierPointOptions &options,
                                     const StreamingConfig &config,
                                     ExecutionContext exec)
    : options_(options), config_(config), exec_(std::move(exec)),
      regionCount_(region_count), dim_(options.clustering.dim)
{
    BP_ASSERT(region_count > 0, "streaming analysis requires regions");
    BP_ASSERT(dim_ > 0, "clustering dim must be positive");

    const uint64_t budget = std::max<uint64_t>(
        config_.memoryBudgetBytes, 1ull << 20);
    const uint64_t point_bytes = uint64_t{dim_} * sizeof(double);

    // A quarter of the budget for the batch buffers (one per training
    // pass plus per-model scratch), clamped to a useful range.
    batch_ = config_.batchSize > 0
        ? config_.batchSize
        : static_cast<unsigned>(
              clampU64(budget / 4 / point_bytes, 256, 65536));

    // The reservoir seeds the k sweep: big enough that k-means++ on
    // it is meaningful for maxK clusters, small enough to be noise in
    // the budget.
    const uint64_t entry_bytes = point_bytes + 48;
    reservoirCap_ = config_.reservoirSize > 0
        ? config_.reservoirSize
        : static_cast<unsigned>(
              clampU64(budget / 64 / entry_bytes,
                       std::max<uint64_t>(64, 2 * options_.clustering.maxK),
                       4096));

    // Points stay in RAM when the whole set fits in half the budget
    // (the other half covers the always-resident per-region state,
    // reservoir, batches, and models); otherwise they spill.
    inMemory_ =
        uint64_t{regionCount_} * point_bytes * 2 <= budget;

    regionInstructions_.reserve(regionCount_);
    weights_.reserve(regionCount_);
    reservoir_.reserve(reservoirCap_);
    if (inMemory_)
        points_.reserve(uint64_t{regionCount_} * dim_);
    else
        spill_ = openScratchFile(config_.spillDir);
}

StreamingAnalyzer::~StreamingAnalyzer()
{
    if (spill_)
        std::fclose(spill_);
}

void
StreamingAnalyzer::offerToReservoir(uint32_t region, double weight,
                                    const std::vector<double> &point)
{
    // Bottom-k by stateless hash key: membership is a pure function
    // of (seed, region set). hashMix is bijective and the pre-mix
    // values are distinct per region, so keys never tie.
    const uint64_t key = hashMix(options_.clustering.seed ^
                                 (kReservoirStride * (uint64_t{region} + 1)));
    const auto by_key = [](const ReservoirEntry &a,
                           const ReservoirEntry &b) {
        return a.key < b.key;
    };
    if (reservoir_.size() < reservoirCap_) {
        reservoir_.push_back({key, region, weight, point});
        std::push_heap(reservoir_.begin(), reservoir_.end(), by_key);
        return;
    }
    if (key >= reservoir_.front().key)
        return;
    std::pop_heap(reservoir_.begin(), reservoir_.end(), by_key);
    reservoir_.back() = {key, region, weight, point};
    std::push_heap(reservoir_.begin(), reservoir_.end(), by_key);
}

void
StreamingAnalyzer::consume(RegionProfile &&profile)
{
    BP_ASSERT(!finished_, "consume() after finish()");
    BP_ASSERT(profile.regionIndex == consumed(),
              "regions must arrive in index order");
    BP_ASSERT(consumed() < regionCount_, "more regions than announced");

    const uint64_t instructions = profile.instructions();
    const double weight = static_cast<double>(instructions);

    const std::vector<double> point = projectSignature(
        buildSignature(profile, options_.signature), dim_,
        options_.clustering.seed);

    offerToReservoir(profile.regionIndex, weight, point);
    if (inMemory_)
        points_.insert(points_.end(), point.begin(), point.end());
    else if (std::fwrite(point.data(), sizeof(double), dim_, spill_) != dim_)
        throw SerializeError("short write to the signature spill");

    regionInstructions_.push_back(instructions);
    weights_.push_back(weight);
    // The profile dies here — nothing region-indexed but the
    // 16 bytes above outlives this call.
}

void
StreamingAnalyzer::forEachBatch(
    const std::function<void(const double *, uint32_t, size_t)> &fn)
{
    // Not consumed(): finish() moves regionInstructions_ into the
    // analysis before the final assignment sweep, which would zero it.
    const uint64_t n = regionCount_;
    std::vector<double> buffer;
    if (!inMemory_) {
        buffer.resize(uint64_t{batch_} * dim_);
        if (std::fseek(spill_, 0, SEEK_SET) != 0)
            throw SerializeError("cannot rewind the signature spill");
    }
    for (uint64_t first = 0; first < n; first += batch_) {
        const size_t count = static_cast<size_t>(
            std::min<uint64_t>(batch_, n - first));
        const double *points = buffer.data();
        if (inMemory_)
            points = points_.data() + first * dim_;
        else if (std::fread(buffer.data(), sizeof(double), count * dim_,
                            spill_) != count * dim_)
            throw SerializeError("short read from the signature spill");
        fn(points, static_cast<uint32_t>(first), count);
    }
}

BarrierPointAnalysis
StreamingAnalyzer::finish()
{
    BP_ASSERT(!finished_, "finish() called twice");
    BP_ASSERT(consumed() == regionCount_,
              "finish() before every region arrived");
    finished_ = true;

    ThreadPool &pool = exec_.pool();
    const uint64_t n = consumed();

    // Reservoir -> region-ordered sample (heap order is arrival
    // noise; region order is the deterministic presentation).
    std::sort(reservoir_.begin(), reservoir_.end(),
              [](const ReservoirEntry &a, const ReservoirEntry &b) {
                  return a.region < b.region;
              });
    std::vector<std::vector<double>> sample_points;
    std::vector<double> sample_weights;
    sample_points.reserve(reservoir_.size());
    sample_weights.reserve(reservoir_.size());
    for (ReservoirEntry &entry : reservoir_) {
        sample_points.push_back(std::move(entry.point));
        sample_weights.push_back(entry.weight);
    }

    const unsigned max_k = std::min<unsigned>(
        options_.clustering.maxK,
        static_cast<unsigned>(sample_points.size()));

    // Seed every model with a full weighted k-means run on the
    // sample (same restarts/seeding discipline as the batch sweep),
    // then give each centroid its sample cluster mass as starting
    // inertia so the first mini-batch refines rather than replaces it.
    std::vector<KMeansResult> seeds(max_k);
    parallelFor(&pool, 0, max_k, [&](uint64_t idx) {
        seeds[idx] = kmeansCluster(sample_points, sample_weights,
                                   static_cast<unsigned>(idx) + 1,
                                   options_.clustering.seed,
                                   options_.clustering.maxIterations,
                                   options_.clustering.restarts, &pool);
    });
    std::vector<MiniBatchLloyd> models;
    models.reserve(max_k);
    for (unsigned idx = 0; idx < max_k; ++idx) {
        std::vector<double> mass(idx + 1, 0.0);
        for (size_t i = 0; i < sample_points.size(); ++i)
            mass[seeds[idx].assignment[i]] += sample_weights[i];
        models.emplace_back(std::move(seeds[idx].centroids),
                            std::move(mass));
    }
    seeds.clear();

    // Training: kEpochs mini-batch sweeps. Batches are defined by
    // region index; models update independently (parallel across k,
    // serial in point order within each), so output is bit-identical
    // for any thread count.
    for (unsigned epoch = 0; epoch < kEpochs; ++epoch) {
        forEachBatch([&](const double *pts, uint32_t first, size_t count) {
            parallelFor(&pool, 0, models.size(), [&](uint64_t m) {
                models[m].update(pts, weights_.data() + first, count);
            });
        });
    }

    // Scoring sweep: per-model BIC statistics plus the running
    // per-cluster selection state, accumulated in region order.
    struct ModelScore
    {
        double sse = 0.0;
        std::vector<ClusterSelectionState> clusters;
    };
    std::vector<ModelScore> scores(max_k);
    for (unsigned idx = 0; idx < max_k; ++idx)
        scores[idx].clusters.resize(idx + 1);
    forEachBatch([&](const double *pts, uint32_t first, size_t count) {
        parallelFor(&pool, 0, models.size(), [&](uint64_t m) {
            ModelScore &score = scores[m];
            for (size_t i = 0; i < count; ++i) {
                double dist = 0.0;
                const unsigned c =
                    models[m].nearest(pts + i * dim_, &dist);
                const uint32_t region = first + static_cast<uint32_t>(i);
                score.sse += weights_[region] * dist;
                score.clusters[c].observeDistance(
                    dist, regionInstructions_[region], weights_[region]);
            }
        });
    });

    std::vector<double> bic_by_k(max_k);
    for (unsigned idx = 0; idx < max_k; ++idx) {
        std::vector<double> cluster_weight(idx + 1);
        for (unsigned c = 0; c <= idx; ++c)
            cluster_weight[c] = scores[idx].clusters[c].weight;
        bic_by_k[idx] =
            bicFromStats(n, dim_, cluster_weight, scores[idx].sse);
    }
    const unsigned chosen =
        chooseKByBic(bic_by_k, options_.clustering.bicThreshold);
    MiniBatchLloyd &model = models[chosen - 1];
    std::vector<ClusterSelectionState> &clusters =
        scores[chosen - 1].clusters;

    // Selection sweeps for the chosen model only: count the near-ties
    // of each cluster's best distance, then pick the median tie.
    forEachBatch([&](const double *pts, uint32_t first, size_t count) {
        for (size_t i = 0; i < count; ++i) {
            double dist = 0.0;
            const unsigned c = model.nearest(pts + i * dim_, &dist);
            clusters[c].observeTieCount(
                dist, regionInstructions_[first + i]);
        }
    });
    forEachBatch([&](const double *pts, uint32_t first, size_t count) {
        for (size_t i = 0; i < count; ++i) {
            double dist = 0.0;
            const unsigned c = model.nearest(pts + i * dim_, &dist);
            clusters[c].observePick(first + static_cast<uint32_t>(i),
                                    dist, regionInstructions_[first + i]);
        }
    });

    std::vector<unsigned> cluster_to_point;
    BarrierPointAnalysis analysis = finalizeSelection(
        clusters, std::move(regionInstructions_), std::move(bic_by_k),
        options_.significance, cluster_to_point);

    // Final assignment sweep fills regionToPoint.
    forEachBatch([&](const double *pts, uint32_t first, size_t count) {
        for (size_t i = 0; i < count; ++i) {
            const unsigned c = model.nearest(pts + i * dim_);
            const unsigned j = cluster_to_point[c];
            BP_ASSERT(j != kNoClusterPoint,
                      "region assigned to an unemitted cluster");
            analysis.regionToPoint[first + i] = j;
        }
    });

    points_.clear();
    points_.shrink_to_fit();
    if (spill_)
        std::fclose(spill_);
    spill_ = nullptr;
    return analysis;
}

BarrierPointAnalysis
analyzeWorkloadStreaming(const Workload &workload,
                         const BarrierPointOptions &options,
                         const StreamingConfig &config,
                         const ExecutionContext &exec)
{
    StreamingAnalyzer analyzer(workload.regionCount(), options, config,
                               exec);
    profileWorkloadToSink(workload, options.profiling, analyzer, exec);
    return analyzer.finish();
}

BarrierPointAnalysis
analyzeProfilesStreaming(const std::vector<RegionProfile> &profiles,
                         const BarrierPointOptions &options,
                         const StreamingConfig &config,
                         const ExecutionContext &exec)
{
    BP_ASSERT(!profiles.empty(), "no profiles to analyze");
    StreamingAnalyzer analyzer(
        static_cast<unsigned>(profiles.size()), options, config, exec);
    for (const RegionProfile &profile : profiles) {
        RegionProfile copy = profile;
        analyzer.consume(std::move(copy));
    }
    return analyzer.finish();
}

} // namespace bp
