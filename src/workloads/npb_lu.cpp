/**
 * @file
 * Synthetic npb-lu: SSOR solver with lower/upper wavefront sweeps.
 *
 * One initialization barrier plus 251 SSOR iterations of two phases
 * (blts lower-triangular sweep, buts upper-triangular sweep): 503
 * dynamic barriers. The two sweep phases share the grid but use
 * distinct code (BBVs) and slightly different compute intensities,
 * so clustering typically resolves the application into a small
 * number of barrierpoints with multipliers near 250 — the paper's
 * Table III reports exactly this shape at 32 cores.
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbLu final : public Workload
{
  public:
    explicit NpbLu(const WorkloadParams &params)
        : Workload("npb-lu", params)
    {}

    unsigned regionCount() const override { return 503; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr uint64_t kU = 8192;    ///< 512 KB grid
    static constexpr uint64_t kRsd = 8192;  ///< 512 KB residual

    uint64_t u() const { return arrayBase(0); }
    uint64_t rsd() const { return arrayBase(1); }
};

RegionTrace
NpbLu::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    if (index == 0) {
        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            LoopSpec spec{.bb = 90, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, u(), kLineBytes,
                       blockPartition(scaled(kU), threads, t), true);
            emitStream(out, spec, rsd(), kLineBytes,
                       blockPartition(scaled(kRsd), threads, t), true);
        }
        return trace;
    }

    const unsigned iter = (index - 1) / 2;
    const bool lower = ((index - 1) % 2) == 0;
    const double wob = lengthWobble(params().seed, iter * 4 + lower, 0.15);
    // Sweeps walk a rotating half of the grid each iteration.
    const uint64_t half = (iter % 2) * (kU / 2) * kLineBytes;

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        if (lower) { // blts: lower-triangular wavefront
            LoopSpec spec{.bb = 100, .aluPerMem = 3, .chunk = 32};
            emitStencil(out, spec, rsd() + half, u() + half, kLineBytes,
                        wobbledPartition(scaled(512), threads, t, wob));
        } else { // buts: upper-triangular wavefront, more compute
            LoopSpec spec{.bb = 110, .aluPerMem = 4, .chunk = 32};
            emitStencil(out, spec, u() + half, rsd() + half, kLineBytes,
                        wobbledPartition(scaled(448), threads, t, wob));
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbLu(const WorkloadParams &params)
{
    return std::make_unique<NpbLu>(params);
}

} // namespace bp
