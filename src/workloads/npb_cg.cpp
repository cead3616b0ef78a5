/**
 * @file
 * Synthetic npb-cg: Conjugate Gradient with an irregular sparse matrix.
 *
 * One initialization barrier plus 15 CG iterations of three phases
 * (sparse mat-vec, dot-product reduction, axpy vector update): 46
 * dynamic barriers, matching Table III. The mat-vec streams the matrix
 * structure (no reuse) and gathers from a 10 MB indirection table with
 * banded locality: each thread's gathers fall in a window around its
 * own row block. The aggregate working set exceeds a single 8 MB L3
 * but fits comfortably in the 32 MB of a four-socket machine, which
 * reproduces the paper's superlinear 8-to-32-core scaling (Figure 8).
 */

#include <algorithm>

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbCg final : public Workload
{
  public:
    explicit NpbCg(const WorkloadParams &params)
        : Workload("npb-cg", params)
    {}

    unsigned regionCount() const override { return 46; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr uint64_t kA = 49152;       ///< 3 MB matrix values
    static constexpr uint64_t kColIdx = 24576;  ///< 1.5 MB column index
    static constexpr uint64_t kX = 163840;      ///< 10 MB gather table
    static constexpr uint64_t kVec = 16384;     ///< 1 MB per CG vector

    uint64_t a() const { return arrayBase(0); }
    uint64_t colIdx() const { return arrayBase(1); }
    uint64_t x() const { return arrayBase(2); }
    uint64_t p() const { return arrayBase(3); }
    uint64_t q() const { return arrayBase(4); }
    uint64_t r() const { return arrayBase(5); }
};

RegionTrace
NpbCg::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    if (index == 0) {
        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            LoopSpec spec{.bb = 90, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, x(), 16 * kLineBytes,
                       blockPartition(scaled(kX / 16), threads, t), true);
            emitStream(out, spec, p(), 2 * kLineBytes,
                       blockPartition(scaled(kVec / 2), threads, t), true);
            emitStream(out, spec, q(), 2 * kLineBytes,
                       blockPartition(scaled(kVec / 2), threads, t), true);
            emitStream(out, spec, r(), 2 * kLineBytes,
                       blockPartition(scaled(kVec / 2), threads, t), true);
        }
        return trace;
    }

    const unsigned phase = (index - 1) % 3;

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        switch (phase) {
          case 0: { // sparse mat-vec: stream A/colidx, banded gathers
            LoopSpec stream_spec{.bb = 100, .aluPerMem = 1, .chunk = 16};
            emitStream(out, stream_spec, a(), kLineBytes,
                       blockPartition(scaled(kA), threads, t), false);
            LoopSpec idx_spec{.bb = 102, .aluPerMem = 1, .chunk = 16};
            emitStream(out, idx_spec, colIdx(), kLineBytes,
                       blockPartition(scaled(kColIdx), threads, t), false);

            // Banded gather window centred on this thread's row block.
            const uint64_t x_lines = scaled(kX);
            const Range block = blockPartition(x_lines, threads, t);
            // At least one line: at 1024 threads a small table's
            // share rounds to zero.
            const uint64_t width = std::clamp<uint64_t>(
                (x_lines * 5) / (2 * threads), 1, x_lines);
            const uint64_t centre = (block.lo + block.hi) / 2;
            const uint64_t lo =
                centre > width / 2 ? centre - width / 2 : 0;
            const uint64_t window_lo = std::min(lo, x_lines - width);

            // Fixed per-thread seed: the matrix structure is constant,
            // so every mat-vec repeats the identical gather sequence.
            Rng rng = Rng::forTask(params().seed, (0x106ull << 32) ^ t);
            LoopSpec gather_spec{.bb = 104, .aluPerMem = 1, .chunk = 16};
            emitGather(out, gather_spec, x(), window_lo, width,
                       scaled(2500), rng, false);
            break;
          }
          case 1: { // dot product: rho = p . q
            LoopSpec spec{.bb = 120, .aluPerMem = 2, .chunk = 32};
            emitReduce(out, spec, p(), q(), kLineBytes,
                       blockPartition(scaled(kVec), threads, t));
            break;
          }
          default: { // axpy: p = r + beta * p
            LoopSpec spec{.bb = 140, .aluPerMem = 2, .chunk = 32};
            emitCopy(out, spec, r(), kLineBytes, p(), kLineBytes,
                     blockPartition(scaled(kVec), threads, t));
            break;
          }
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbCg(const WorkloadParams &params)
{
    return std::make_unique<NpbCg>(params);
}

} // namespace bp
