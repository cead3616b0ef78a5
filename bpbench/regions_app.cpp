#include "regions_app.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/support/rng.h"

namespace bpbench {

namespace {

using bp::MicroOp;

constexpr unsigned kPhases = 4;

class RegionsApp final : public bp::Workload
{
  public:
    explicit RegionsApp(uint64_t seed)
        : Workload("bench-regions",
                   bp::WorkloadParams{kRegionsAppThreads, 1.0, seed}),
          phase_(kRegionsAppRegions)
    {
        // Runs of 2..9 consecutive regions share a phase, as loop
        // nests between barriers do. Every phase gets the same number
        // of regions; only the run lengths and their order are seeded.
        bp::Rng rng = bp::Rng::forTask(seed, 0xB0B5EC);
        std::vector<std::pair<uint8_t, unsigned>> runs;  // phase, length
        for (unsigned phase = 0; phase < kPhases; ++phase) {
            unsigned left = kRegionsAppRegions / kPhases;
            while (left > 0) {
                const unsigned run = std::min<unsigned>(
                    left, 2 + static_cast<unsigned>(rng.nextBounded(8)));
                runs.emplace_back(static_cast<uint8_t>(phase), run);
                left -= run;
            }
        }
        for (size_t i = runs.size(); i > 1; --i)
            std::swap(runs[i - 1], runs[rng.nextBounded(i)]);
        size_t r = 0;
        for (const auto &[phase, length] : runs)
            for (unsigned i = 0; i < length; ++i)
                phase_[r++] = phase;
    }

    unsigned regionCount() const override { return kRegionsAppRegions; }

    bp::RegionTrace
    generateRegion(unsigned index) const override
    {
        const unsigned threads = threadCount();
        bp::RegionTrace trace(index, threads);
        const unsigned phase = phase_[index];
        for (unsigned t = 0; t < threads; ++t) {
            bp::Rng rng = bp::Rng::forTask(params().seed,
                                           uint64_t{index} * threads + t);
            std::vector<MicroOp> &ops = trace.thread(t);
            const unsigned n = 150 + 30 * phase;
            ops.reserve(n);
            switch (phase) {
              case 0:
                stream(ops, n, index, t);
                break;
              case 1:
                gather(ops, n, index, t, rng);
                break;
              case 2:
                stencil(ops, n, index, t);
                break;
              default:
                compute(ops, n, index, t);
                break;
            }
        }
        return trace;
    }

  private:
    /**
     * Start of the @p lines-line window that region @p index gives
     * thread @p t in array @p array. Windows never overlap, so every
     * region starts on lines no region touched before: its misses and
     * reuse distances do not depend on which phases ran earlier.
     */
    uint64_t
    window(unsigned array, unsigned index, unsigned t, uint64_t lines) const
    {
        return arrayBase(array) + uint64_t{t} * (64u << 20) +
               uint64_t{index} * lines * bp::kLineBytes;
    }

    /** Streaming reads of 8-byte elements over a fresh window. */
    void
    stream(std::vector<MicroOp> &ops, unsigned n, unsigned index,
           unsigned t) const
    {
        const uint64_t base = window(0, index, t, 16);
        for (unsigned i = 0; i + 1 < n; i += 2) {
            ops.push_back(MicroOp::alu(100 + i % 4));
            ops.push_back(MicroOp::load(104, base + uint64_t{i / 2} * 8));
        }
    }

    /** Random reads within a fresh 8-line window, two ALU ops each. */
    void
    gather(std::vector<MicroOp> &ops, unsigned n, unsigned index,
           unsigned t, bp::Rng &rng) const
    {
        const uint64_t base = window(1, index, t, 8);
        for (unsigned i = 0; i + 2 < n; i += 3) {
            ops.push_back(MicroOp::alu(200));
            ops.push_back(MicroOp::alu(201 + (i / 3) % 2));
            // Mostly a fixed pattern; every eighth read is random.
            const uint64_t element =
                i % 24 == 0 ? rng.nextBounded(64) : (i * 37) % 64;
            ops.push_back(MicroOp::load(203, base + element * 8));
        }
    }

    /** Three-point stencil along a fresh row, writing a fresh row. */
    void
    stencil(std::vector<MicroOp> &ops, unsigned n, unsigned index,
            unsigned t) const
    {
        const uint64_t in = window(2, index, t, 16);
        const uint64_t out = window(3, index, t, 16);
        for (unsigned k = 0, i = 1; k + 5 < n; k += 6, ++i) {
            ops.push_back(MicroOp::load(300, in + uint64_t{i - 1} * 16));
            ops.push_back(MicroOp::load(301, in + uint64_t{i} * 16));
            ops.push_back(MicroOp::load(302, in + uint64_t{i + 1} * 16));
            ops.push_back(MicroOp::alu(303));
            ops.push_back(MicroOp::alu(303));
            ops.push_back(MicroOp::store(304, out + uint64_t{i} * 16));
        }
    }

    /** ALU-heavy code with an occasional read of a fresh 4-line buffer. */
    void
    compute(std::vector<MicroOp> &ops, unsigned n, unsigned index,
            unsigned t) const
    {
        const uint64_t hot = window(4, index, t, 4);
        for (unsigned i = 0; i < n; ++i) {
            if (i % 8 == 7) {
                ops.push_back(MicroOp::load(
                    400, hot + (i / 8 % 4) * bp::kLineBytes));
            } else {
                ops.push_back(MicroOp::alu(401 + i % 6));
            }
        }
    }

    std::vector<uint8_t> phase_;  ///< region -> phase archetype
};

} // namespace

std::unique_ptr<bp::Workload>
makeRegionsApp(uint64_t seed)
{
    return std::make_unique<RegionsApp>(seed);
}

} // namespace bpbench
