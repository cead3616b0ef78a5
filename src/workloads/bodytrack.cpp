/**
 * @file
 * Synthetic parsec-bodytrack: particle-filter body tracking.
 *
 * One initialization barrier plus 8 frames of eleven OpenMP-barrier
 * phases (edge detection, thresholding, four particle-weight passes,
 * resampling, three annealing steps, model update): 89 dynamic
 * barriers. Frame-to-frame work varies with the (synthetic) image
 * content, producing regions that cluster together but differ in
 * length — exercising the multiplier-scaling step of the runtime
 * reconstruction.
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class Bodytrack final : public Workload
{
  public:
    explicit Bodytrack(const WorkloadParams &params)
        : Workload("parsec-bodytrack", params)
    {}

    unsigned regionCount() const override { return 89; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr uint64_t kImage = 24576;     ///< 1.5 MB frame
    static constexpr uint64_t kEdges = 24576;     ///< 1.5 MB edge map
    static constexpr uint64_t kModel = 4096;      ///< 256 KB body model
    static constexpr uint64_t kParticles = 4096;  ///< 256 KB particles

    uint64_t image() const { return arrayBase(0); }
    uint64_t edges() const { return arrayBase(1); }
    uint64_t model() const { return arrayBase(2); }
    uint64_t particles() const { return arrayBase(3); }
};

RegionTrace
Bodytrack::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    if (index == 0) {
        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            LoopSpec spec{.bb = 490, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, image(), kLineBytes,
                       blockPartition(scaled(kImage), threads, t), true);
            emitStream(out, spec, model(), kLineBytes,
                       blockPartition(scaled(kModel), threads, t), true);
            emitStream(out, spec, particles(), kLineBytes,
                       blockPartition(scaled(kParticles), threads, t),
                       true);
        }
        return trace;
    }

    const unsigned frame = (index - 1) / 11;
    const unsigned phase = (index - 1) % 11;
    const double wob =
        lengthWobble(params().seed, frame * 16 + phase, 0.15);

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        const auto part = [&](uint64_t elems) {
            return wobbledPartition(scaled(elems), threads, t, wob);
        };

        if (phase == 0) { // edge detection: image stencil
            LoopSpec spec{.bb = 500, .aluPerMem = 2, .chunk = 32};
            emitStencil(out, spec, image(), edges(), kLineBytes,
                        part(4096));
        } else if (phase == 1) { // thresholding: branchy streaming
            LoopSpec spec{.bb = 510, .aluPerMem = 1, .chunk = 16,
                          .branchy = true};
            emitCopy(out, spec, edges(), kLineBytes, edges(), kLineBytes,
                     part(4096));
        } else if (phase < 6) { // four particle-weight passes
            // Same code every pass -> one cluster with multiplier ~4/frame.
            Rng rng = Rng::forTask(params().seed, (0x520ull << 32) ^ t);
            LoopSpec spec{.bb = 520, .aluPerMem = 5, .chunk = 24};
            emitGather(out, spec, model(), 0, scaled(kModel),
                       scaled(2048) / threads, rng, false);
        } else if (phase == 6) { // resampling: scatter, data dependent
            Rng rng = Rng::forTask(params().seed, (uint64_t{frame} << 36) ^ t);
            LoopSpec spec{.bb = 540, .aluPerMem = 2, .chunk = 8,
                          .branchy = true};
            // Each thread owns a slice of the particle set.
            const Range slice =
                blockPartition(scaled(kParticles), threads, t);
            emitGather(out, spec, particles(), slice.lo,
                       std::max<uint64_t>(1, slice.size()),
                       scaled(2048) / threads, rng, true);
        } else if (phase < 10) { // three annealing steps: compute heavy
            Rng rng = Rng::forTask(params().seed, (0x550ull << 32) ^ t);
            LoopSpec alu_spec{.bb = 550, .aluPerMem = 0, .chunk = 48};
            emitAlu(out, alu_spec, scaled(8000) / threads);
            LoopSpec spec{.bb = 552, .aluPerMem = 3, .chunk = 24};
            emitGather(out, spec, model(), 0, scaled(kModel),
                       scaled(512) / threads, rng, false);
        } else { // model update: short streaming pass
            LoopSpec spec{.bb = 560, .aluPerMem = 1, .chunk = 16};
            emitCopy(out, spec, particles(), kLineBytes, particles(),
                     kLineBytes, part(2048));
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeBodytrack(const WorkloadParams &params)
{
    return std::make_unique<Bodytrack>(params);
}

} // namespace bp
