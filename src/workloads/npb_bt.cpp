/**
 * @file
 * Synthetic npb-bt: Block-Tridiagonal ADI solver.
 *
 * Structure mirrors NPB BT class A: one initialization barrier, then
 * 200 time steps of five globally synchronized phases each (rhs,
 * x_solve, y_solve, z_solve, add) — 1001 dynamic barriers, matching
 * the paper's Figure 1 / Table III. Each phase has a distinct code
 * footprint (BBV) and access pattern (LDV): line-strided rhs sweeps,
 * unit-stride x_solve, row-strided y_solve, set-thrashing
 * plane-strided z_solve, and a streaming add.
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbBt final : public Workload
{
  public:
    explicit NpbBt(const WorkloadParams &params)
        : Workload("npb-bt", params)
    {}

    unsigned regionCount() const override { return 1001; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    // Array sizes in cache lines.
    static constexpr uint64_t kU = 4096;     ///< 256 KB solution grid
    static constexpr uint64_t kRhs = 4096;   ///< 256 KB right-hand side
    static constexpr uint64_t kLhs = 8192;   ///< 512 KB factor blocks
    static constexpr uint64_t kZl = 32768;   ///< 2 MB z-direction blocks

    uint64_t u() const { return arrayBase(0); }
    uint64_t rhs() const { return arrayBase(1); }
    uint64_t lhs() const { return arrayBase(2); }
    uint64_t zl() const { return arrayBase(3); }
};

RegionTrace
NpbBt::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    if (index == 0) {
        // Initialization: touch every array once (streaming writes).
        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            LoopSpec spec{.bb = 90, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, u(), kLineBytes,
                       blockPartition(scaled(kU), threads, t), true);
            emitStream(out, spec, rhs(), kLineBytes,
                       blockPartition(scaled(kRhs), threads, t), true);
            emitStream(out, spec, lhs(), kLineBytes,
                       blockPartition(scaled(kLhs), threads, t), true);
            spec.bb = 92;
            emitStream(out, spec, zl(), 4 * kLineBytes,
                       blockPartition(scaled(kZl / 4), threads, t), true);
        }
        return trace;
    }

    const unsigned iter = (index - 1) / 5;
    const unsigned phase = (index - 1) % 5;
    const double wob = lengthWobble(params().seed, iter * 8 + phase, 0.20);

    // Each rhs/add time step sweeps a rotating quarter of the grid.
    const uint64_t quarter = (iter % 4) * (kU / 4) * kLineBytes;

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        switch (phase) {
          case 0: { // rhs: line-strided grid sweep, memory heavy
            LoopSpec spec{.bb = 100, .aluPerMem = 1, .chunk = 32};
            emitCopy(out, spec, u() + quarter, kLineBytes, rhs() + quarter,
                     kLineBytes,
                     wobbledPartition(scaled(1024), threads, t, wob));
            break;
          }
          case 1: { // x_solve: unit-stride, compute heavy
            LoopSpec spec{.bb = 110, .aluPerMem = 4, .chunk = 64};
            const uint64_t half = (iter % 2) * (kLhs / 2) * kLineBytes;
            emitCopy(out, spec, lhs() + half, 8, lhs() + half, 8,
                     wobbledPartition(scaled(640), threads, t, wob));
            break;
          }
          case 2: { // y_solve: row-strided
            LoopSpec spec{.bb = 120, .aluPerMem = 4, .chunk = 48};
            emitCopy(out, spec, lhs(), 512, lhs(), 512,
                     wobbledPartition(scaled(640), threads, t, wob));
            break;
          }
          case 3: { // z_solve: plane-strided (L1 set thrashing)
            LoopSpec spec{.bb = 130, .aluPerMem = 3, .chunk = 16};
            emitCopy(out, spec, zl(), 4096, zl(), 4096,
                     wobbledPartition(scaled(512), threads, t, wob));
            break;
          }
          default: { // add: u += rhs streaming update
            LoopSpec spec{.bb = 140, .aluPerMem = 1, .chunk = 16};
            emitCopy(out, spec, rhs() + quarter, kLineBytes, u() + quarter,
                     kLineBytes,
                     wobbledPartition(scaled(1024), threads, t, wob));
            break;
          }
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbBt(const WorkloadParams &params)
{
    return std::make_unique<NpbBt>(params);
}

} // namespace bp
