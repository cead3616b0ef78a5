/**
 * @file
 * Synthetic npb-mg: MultiGrid V-cycle solver.
 *
 * Five per-level initialization barriers plus 20 V-cycles of twelve
 * barrier-separated steps (four restrictions, a coarse solve, four
 * prolongations, a residual and two smoothing passes): 245 dynamic
 * barriers. Restriction and prolongation reuse the *same* code at
 * every grid level, so their BBVs are nearly identical while their
 * working sets differ by orders of magnitude — this is the showcase
 * for combining BBVs with LRU stack distance vectors (Figure 5):
 * BBV-only clustering merges levels that behave very differently.
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbMg final : public Workload
{
  public:
    explicit NpbMg(const WorkloadParams &params)
        : Workload("npb-mg", params)
    {}

    unsigned regionCount() const override { return 245; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr unsigned kLevels = 5;
    /** Grid sizes in lines: 2 MB, 256 KB, 32 KB, 4 KB, 1 KB. */
    static constexpr uint64_t kLines[kLevels] = {32768, 4096, 512, 64, 16};
    /** Read strides chosen so touched footprints stay ordered. */
    static constexpr uint64_t kStride[kLevels] = {512, 256, 128, 64, 64};

    uint64_t level(unsigned l) const { return arrayBase(l); }
    uint64_t residual() const { return arrayBase(kLevels); }

    /** Elements a full sweep of level @p l touches. */
    uint64_t
    sweepElems(unsigned l) const
    {
        return scaled(kLines[l] * kLineBytes / kStride[l]);
    }
};

constexpr uint64_t NpbMg::kLines[];
constexpr uint64_t NpbMg::kStride[];

RegionTrace
NpbMg::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    if (index < kLevels) {
        // Initialization of level `index`.
        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            LoopSpec spec{.bb = 390, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, level(index), 4 * kLineBytes,
                       blockPartition(scaled(kLines[index] / 4), threads, t),
                       true);
        }
        return trace;
    }

    const unsigned cycle = (index - kLevels) / 12;
    const unsigned step = (index - kLevels) % 12;
    const double wob = lengthWobble(params().seed, cycle * 16 + step, 0.10);

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        const auto part = [&](uint64_t elems) {
            return wobbledPartition(std::max<uint64_t>(4, elems), threads,
                                    t, wob);
        };

        if (step < 4) {
            // Restriction level step -> step+1 (same code, all levels).
            const unsigned l = step;
            LoopSpec spec{.bb = 400, .aluPerMem = 2, .chunk = 32};
            emitCopy(out, spec, level(l), kStride[l], level(l + 1),
                     kLineBytes, part(sweepElems(l) / 2));
        } else if (step == 4) {
            // Coarse-grid solve on the smallest level, compute heavy.
            LoopSpec alu_spec{.bb = 410, .aluPerMem = 0, .chunk = 24};
            emitAlu(out, alu_spec, scaled(2048) / threads);
            LoopSpec spec{.bb = 412, .aluPerMem = 4, .chunk = 24};
            emitCopy(out, spec, level(kLevels - 1), 8,
                     level(kLevels - 1), 8, part(256));
        } else if (step < 9) {
            // Prolongation: coarse level l -> fine level l-1.
            const unsigned l = 9 - step;  // coarse level index 4..1
            LoopSpec spec{.bb = 420, .aluPerMem = 2, .chunk = 32};
            emitCopy(out, spec, level(l), kLineBytes, level(l - 1),
                     kStride[l - 1], part(sweepElems(l - 1) / 2));
        } else if (step == 9) {
            // Residual on the finest grid: widest region of the cycle.
            LoopSpec spec{.bb = 430, .aluPerMem = 2, .chunk = 32};
            emitStencil(out, spec, level(0), residual(), kStride[0],
                        part(sweepElems(0) / 2));
        } else {
            // Two smoothing passes on the finest grid.
            LoopSpec spec{.bb = 440, .aluPerMem = 2, .chunk = 32};
            const uint64_t offset =
                (step - 10) * (kLines[0] / 2) * kLineBytes;
            emitCopy(out, spec, level(0) + offset, kStride[0],
                     level(0) + offset, kStride[0],
                     part(sweepElems(0) / 2));
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbMg(const WorkloadParams &params)
{
    return std::make_unique<NpbMg>(params);
}

} // namespace bp
