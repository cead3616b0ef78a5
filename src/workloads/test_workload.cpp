#include "src/workloads/test_workload.h"

#include "src/workloads/patterns.h"

namespace bp {
namespace {

class TestWorkload final : public Workload
{
  public:
    TestWorkload(const WorkloadParams &params, const TestWorkloadSpec &spec)
        : Workload("test-workload", params), spec_(spec)
    {}

    unsigned regionCount() const override { return spec_.regions; }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        requireRegion(index);
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);

        if (index == 0) {
            for (unsigned t = 0; t < threads; ++t) {
                LoopSpec spec{.bb = 10, .aluPerMem = 1, .chunk = 16};
                for (unsigned p = 0; p < spec_.phases; ++p) {
                    emitStream(trace.thread(t), spec, arrayBase(p),
                               kLineBytes,
                               blockPartition(spec_.footprintLines,
                                              threads, t),
                               true);
                }
            }
            return trace;
        }

        const unsigned phase = (index - 1) % spec_.phases;
        const unsigned iter = (index - 1) / spec_.phases;
        const double wob = spec_.wobble > 0.0
            ? lengthWobble(params().seed, iter * 8 + phase, spec_.wobble)
            : 1.0;

        for (unsigned t = 0; t < threads; ++t) {
            LoopSpec spec{.bb = 100 + 10 * phase,
                          .aluPerMem = 1 + 2 * phase, .chunk = 16};
            emitCopy(trace.thread(t), spec, arrayBase(phase), kLineBytes,
                     arrayBase(phase), kLineBytes,
                     wobbledPartition(spec_.elemsPerRegion, threads, t,
                                      wob));
        }
        return trace;
    }

  private:
    TestWorkloadSpec spec_;
};

} // namespace

std::unique_ptr<Workload>
makeTestWorkload(const WorkloadParams &params, const TestWorkloadSpec &spec)
{
    return std::make_unique<TestWorkload>(params, spec);
}

} // namespace bp
