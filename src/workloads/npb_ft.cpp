/**
 * @file
 * Synthetic npb-ft: 3-D FFT PDE solver.
 *
 * Four unique setup barriers (index map, initial conditions, first
 * evolve, first FFT) followed by 6 time steps of five phases each
 * (evolve, cffts1/2/3 along the three dimensions, checksum): 34
 * dynamic barriers. The three FFT passes sweep the same array in
 * unit-, row- and plane-order — identical data, very different
 * locality — and the checksum is a tiny sparse-sampled reduction,
 * giving the clustering a mix of unique and repeated regions (the
 * paper selects 9 barrierpoints out of 34 regions).
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbFt final : public Workload
{
  public:
    explicit NpbFt(const WorkloadParams &params)
        : Workload("npb-ft", params)
    {}

    unsigned regionCount() const override { return 34; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr uint64_t kGrid = 16384;     ///< 1 MB per array
    static constexpr uint64_t kTwiddle = 8192;   ///< 512 KB

    uint64_t u0() const { return arrayBase(0); }
    uint64_t u1() const { return arrayBase(1); }
    uint64_t twiddle() const { return arrayBase(2); }

    /** Transpose-order sweep: `passes` column walks of `per_pass`. */
    void emitFftPass(std::vector<MicroOp> &out, uint32_t bb,
                     uint64_t stride, unsigned t) const;
};

void
NpbFt::emitFftPass(std::vector<MicroOp> &out, uint32_t bb, uint64_t stride,
                   unsigned t) const
{
    const unsigned threads = threadCount();
    const uint64_t array_bytes = kGrid * kLineBytes;
    const uint64_t column_elems = array_bytes / stride;
    const uint64_t total_elems = scaled(8192);
    const uint64_t per_pass = std::min(column_elems, total_elems);
    const uint64_t passes =
        std::max<uint64_t>(1, total_elems / std::max<uint64_t>(1, per_pass));

    LoopSpec spec{.bb = bb, .aluPerMem = 6, .chunk = 64};
    for (uint64_t pass = 0; pass < passes; ++pass) {
        const uint64_t column = u1() + pass * kLineBytes;
        emitCopy(out, spec, column, stride, column, stride,
                 blockPartition(per_pass, threads, t));
    }
}

RegionTrace
NpbFt::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);
        if (index == 0) { // compute_indexmap: compute heavy
            LoopSpec spec{.bb = 200, .aluPerMem = 0, .chunk = 48};
            emitAlu(out, spec, scaled(30000) / threads);
            LoopSpec wr{.bb = 202, .aluPerMem = 1, .chunk = 32};
            emitStream(out, wr, twiddle(), kLineBytes,
                       blockPartition(scaled(kTwiddle), threads, t), true);
            continue;
        }
        if (index == 1) { // initial conditions: streaming writes
            LoopSpec spec{.bb = 210, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, u0(), kLineBytes,
                       blockPartition(scaled(kGrid), threads, t), true);
            continue;
        }
        if (index == 2) { // first evolve
            LoopSpec spec{.bb = 220, .aluPerMem = 1, .chunk = 32};
            emitCopy(out, spec, u0(), kLineBytes, u1(), kLineBytes,
                     blockPartition(scaled(kGrid), threads, t));
            continue;
        }
        if (index == 3) { // first forward FFT (unit stride)
            emitFftPass(out, 230, kLineBytes, t);
            continue;
        }

        const unsigned iter = (index - 4) / 5;
        const unsigned phase = (index - 4) % 5;
        switch (phase) {
          case 0: { // evolve: u1 = u0 * twiddle^t, streaming
            LoopSpec spec{.bb = 240, .aluPerMem = 2, .chunk = 32};
            emitCopy(out, spec, u0(), kLineBytes, u1(), kLineBytes,
                     blockPartition(scaled(kGrid), threads, t));
            break;
          }
          case 1: // cffts1: unit stride butterflies
            emitFftPass(out, 250, 8, t);
            break;
          case 2: // cffts2: row stride
            emitFftPass(out, 260, 1024, t);
            break;
          case 3: // cffts3: plane stride
            emitFftPass(out, 270, 32768, t);
            break;
          default: { // checksum: sparse sampled reduction (tiny region)
            Rng rng = Rng::forTask(params().seed, (0x277ull << 32) ^ t);
            LoopSpec spec{.bb = 280, .aluPerMem = 2, .chunk = 16};
            emitGather(out, spec, u1(), 0, scaled(kGrid),
                       scaled(1024) / threads, rng, false);
            (void)iter;
            break;
          }
        }
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbFt(const WorkloadParams &params)
{
    return std::make_unique<NpbFt>(params);
}

} // namespace bp
