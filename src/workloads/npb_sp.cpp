/**
 * @file
 * Synthetic npb-sp: Scalar-Pentadiagonal ADI solver.
 *
 * NPB SP class A executes 400 time steps of nine barrier-separated
 * phases (rhs, txinvr, x_solve, ninvr, y_solve, pinvr, z_solve,
 * tzetar, add) plus one initialization barrier: 3601 dynamic barriers,
 * the largest count in the paper's Table III. Regions are small and
 * highly repetitive, which is exactly the redundancy BarrierPoint
 * exploits: a handful of barrierpoints with multipliers near 400.
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbSp final : public Workload
{
  public:
    explicit NpbSp(const WorkloadParams &params)
        : Workload("npb-sp", params)
    {}

    unsigned regionCount() const override { return 3601; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr uint64_t kU = 4096;    ///< 256 KB
    static constexpr uint64_t kRhs = 4096;  ///< 256 KB
    static constexpr uint64_t kLhs = 8192;  ///< 512 KB
    static constexpr uint64_t kZl = 16384;  ///< 1 MB

    uint64_t u() const { return arrayBase(0); }
    uint64_t rhs() const { return arrayBase(1); }
    uint64_t lhs() const { return arrayBase(2); }
    uint64_t zl() const { return arrayBase(3); }
};

RegionTrace
NpbSp::generateRegion(unsigned index) const
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
            emitStream(out, spec, rhs(), kLineBytes,
                       blockPartition(scaled(kRhs), threads, t), true);
            emitStream(out, spec, lhs(), kLineBytes,
                       blockPartition(scaled(kLhs), threads, t), true);
            emitStream(out, spec, zl(), 2 * kLineBytes,
                       blockPartition(scaled(kZl / 2), threads, t), true);
        }
        return trace;
    }

    const unsigned iter = (index - 1) / 9;
    const unsigned phase = (index - 1) % 9;
    const double wob = lengthWobble(params().seed, iter * 16 + phase, 0.20);
    const uint64_t quarter = (iter % 4) * (kU / 4) * kLineBytes;

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        const auto part = [&](uint64_t base_elems) {
            return wobbledPartition(scaled(base_elems), threads, t, wob);
        };
        switch (phase) {
          case 0: { // rhs
            LoopSpec spec{.bb = 100, .aluPerMem = 2, .chunk = 32};
            emitCopy(out, spec, u() + quarter, kLineBytes, rhs() + quarter,
                     kLineBytes, part(512));
            break;
          }
          case 1: { // txinvr: short, branchy fixup pass
            LoopSpec spec{.bb = 110, .aluPerMem = 1, .chunk = 8,
                          .branchy = true};
            emitStream(out, spec, rhs(), kLineBytes, part(256), false);
            break;
          }
          case 2: { // x_solve: unit stride, compute heavy
            LoopSpec spec{.bb = 120, .aluPerMem = 4, .chunk = 64};
            emitCopy(out, spec, lhs(), 8, lhs(), 8, part(384));
            break;
          }
          case 3: { // ninvr
            LoopSpec spec{.bb = 130, .aluPerMem = 1, .chunk = 8,
                          .branchy = true};
            emitStream(out, spec, rhs(), kLineBytes, part(192), false);
            break;
          }
          case 4: { // y_solve: row stride
            LoopSpec spec{.bb = 140, .aluPerMem = 4, .chunk = 48};
            emitCopy(out, spec, lhs(), 512, lhs(), 512, part(384));
            break;
          }
          case 5: { // pinvr
            LoopSpec spec{.bb = 150, .aluPerMem = 1, .chunk = 8,
                          .branchy = true};
            emitStream(out, spec, rhs(), kLineBytes, part(192), false);
            break;
          }
          case 6: { // z_solve: plane stride over the large block array
            LoopSpec spec{.bb = 160, .aluPerMem = 3, .chunk = 16};
            emitCopy(out, spec, zl(), 4096, zl(), 4096, part(256));
            break;
          }
          case 7: { // tzetar
            LoopSpec spec{.bb = 170, .aluPerMem = 2, .chunk = 8};
            emitStream(out, spec, u(), kLineBytes, part(192), false);
            break;
          }
          default: { // add
            LoopSpec spec{.bb = 180, .aluPerMem = 1, .chunk = 16};
            emitCopy(out, spec, rhs() + quarter, kLineBytes, u() + quarter,
                     kLineBytes, part(384));
            break;
          }
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbSp(const WorkloadParams &params)
{
    return std::make_unique<NpbSp>(params);
}

} // namespace bp
