#include <cmath>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "src/support/serialize.h"
#include "src/workloads/test_workload.h"

namespace bpbench {

namespace {

/** @p v with every digit of its double value. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(uint64_t v)
{
    return std::to_string(v);
}

uint64_t
instructionsOf(const std::vector<bp::RegionStats> &stats)
{
    uint64_t total = 0;
    for (const bp::RegionStats &s : stats)
        total += s.instructions;
    return total;
}

/** Relative difference of @p value from @p reference, in percent. */
double
errorPct(double value, double reference)
{
    if (reference == 0.0)
        return value == 0.0 ? 0.0 : 100.0;
    return std::fabs(value - reference) / reference * 100.0;
}

} // namespace

uint64_t
digestBytes(const std::vector<uint8_t> &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::vector<std::string>
checkItem(const bp::BarrierPointAnalysis &analysis,
          const std::vector<bp::RegionStats> &point_stats,
          const bp::Estimate &estimate, const bp::RunResult &reference,
          uint64_t recorded_ops)
{
    std::vector<std::string> failures;
    if (point_stats.size() != analysis.points.size()) {
        failures.push_back("(a) " + num(uint64_t{point_stats.size()}) +
                           " barrierpoint stats for " +
                           num(uint64_t{analysis.points.size()}) +
                           " barrierpoints");
    } else {
        for (size_t j = 0; j < point_stats.size(); ++j) {
            if (point_stats[j].instructions !=
                analysis.points[j].instructions) {
                failures.push_back(
                    "(a) barrierpoint " + num(uint64_t{j}) + " simulated " +
                    num(point_stats[j].instructions) +
                    " instructions, the analysis says " +
                    num(analysis.points[j].instructions));
                break;
            }
        }
    }

    const uint64_t ref_instructions = reference.totalInstructions();
    if (ref_instructions != analysis.totalInstructions())
        failures.push_back("(b) reference ran " + num(ref_instructions) +
                           " instructions, the analysis says " +
                           num(analysis.totalInstructions()));

    const double ref = static_cast<double>(ref_instructions);
    if (!(std::fabs(estimate.totalInstructions - ref) <= 1e-9 * ref))
        failures.push_back("(c) Estimate has " +
                           num(estimate.totalInstructions) +
                           " instructions, reference " + num(ref));
    if (!std::isfinite(estimate.totalCycles) || estimate.totalCycles <= 0.0)
        failures.push_back("(c) Estimate cycles are " +
                           num(estimate.totalCycles));

    if (recorded_ops != 0 && ref_instructions != recorded_ops)
        failures.push_back("(d) replay ran " + num(ref_instructions) +
                           " instructions, recording generated " +
                           num(recorded_ops));
    return failures;
}

ItemOutcome
summarizeItem(std::string name, const bp::BarrierPointAnalysis &analysis,
              const std::vector<bp::RegionStats> &point_stats,
              const bp::Estimate &estimate, const bp::RunResult &reference,
              uint64_t recorded_ops)
{
    ItemOutcome item;
    item.name = std::move(name);
    item.failures = checkItem(analysis, point_stats, estimate, reference,
                              recorded_ops);
    item.estCycles = estimate.totalCycles;
    item.refCycles = reference.totalCycles();
    item.estApki = estimate.dramApki();
    item.refApki = reference.dramApki();
    item.refInstructions = reference.totalInstructions();
    item.bpInstructions = instructionsOf(point_stats);

    bp::Serializer est;
    est.f64(estimate.totalCycles);
    est.f64(estimate.totalInstructions);
    est.f64(estimate.dramAccesses);
    est.f64(estimate.llcMisses);
    for (const bp::RegionStats &s : point_stats)
        s.serialize(est);
    item.estDigest = digestBytes(est.buffer());

    bp::Serializer ref;
    reference.serialize(ref);
    item.refDigest = digestBytes(ref.buffer());
    return item;
}

ItemOutcome
failedItem(std::string name, const std::string &why)
{
    ItemOutcome item;
    item.name = std::move(name);
    item.failures.push_back("exception: " + why);
    return item;
}

Accuracy
meanAccuracy(const std::vector<ItemOutcome> &items)
{
    Accuracy mean;
    for (const ItemOutcome &item : items) {
        mean.cyclesErrPct += errorPct(item.estCycles, item.refCycles);
        mean.apkiErrPct += errorPct(item.estApki, item.refApki);
    }
    if (!items.empty()) {
        mean.cyclesErrPct /= static_cast<double>(items.size());
        mean.apkiErrPct /= static_cast<double>(items.size());
    }
    return mean;
}

int
runSelfTest()
{
    bp::WorkloadParams params;
    params.threads = 2;
    params.seed = kDefaultSeed;
    const auto workload =
        bp::makeTestWorkload(params, bp::TestWorkloadSpec{});
    const bp::MachineConfig machine = bp::MachineConfig::withCores(2);
    bp::Experiment exp(*workload, {}, bp::ExecutionContext(1));
    const bp::SimulationResult &sim = exp.simulate(machine);
    const bp::RunResult &reference = exp.reference(machine);
    const uint64_t ops = reference.totalInstructions();

    struct Case
    {
        const char *what;
        const char *expect;  ///< failure tag, or "" for a passing item
        std::function<void(std::vector<bp::RegionStats> &, bp::Estimate &,
                           bp::RunResult &, uint64_t &)>
            tamper;
    };
    using Stats = std::vector<bp::RegionStats>;
    const std::vector<Case> cases = {
        {"genuine", "", [](Stats &, bp::Estimate &, bp::RunResult &,
                           uint64_t &) {}},
        {"barrierpoint instruction count", "(a)",
         [](Stats &s, bp::Estimate &, bp::RunResult &, uint64_t &) {
             s.at(0).instructions += 1;
         }},
        {"dropped barrierpoint", "(a)",
         [](Stats &s, bp::Estimate &, bp::RunResult &, uint64_t &) {
             s.pop_back();
         }},
        {"reference instruction count", "(b)",
         [](Stats &, bp::Estimate &, bp::RunResult &r, uint64_t &) {
             r.regions.at(0).instructions += 1;
         }},
        {"Estimate instruction total", "(c)",
         [](Stats &, bp::Estimate &e, bp::RunResult &, uint64_t &) {
             e.totalInstructions *= 1.0 + 1e-6;
         }},
        {"NaN Estimate cycles", "(c)",
         [](Stats &, bp::Estimate &e, bp::RunResult &, uint64_t &) {
             e.totalCycles = std::nan("");
         }},
        {"zero Estimate cycles", "(c)",
         [](Stats &, bp::Estimate &e, bp::RunResult &, uint64_t &) {
             e.totalCycles = 0.0;
         }},
        {"recorded op count", "(d)",
         [](Stats &, bp::Estimate &, bp::RunResult &, uint64_t &n) {
             n += 1;
         }},
    };

    int bad = 0;
    for (const Case &c : cases) {
        Stats stats = sim.stats;
        bp::Estimate estimate = sim.estimate;
        bp::RunResult ref = reference;
        uint64_t recorded = ops;
        c.tamper(stats, estimate, ref, recorded);
        const std::vector<std::string> failures =
            checkItem(exp.analysis(), stats, estimate, ref, recorded);
        const std::string expect = c.expect;
        bool caught = expect.empty() == failures.empty();
        if (!expect.empty() && caught)
            caught = failures.front().rfind(expect, 0) == 0;
        std::printf("self-test %-32s %s\n", c.what,
                    caught ? "ok" : "NOT CAUGHT");
        if (!caught) {
            for (const std::string &f : failures)
                std::printf("  %s\n", f.c_str());
            ++bad;
        }
    }
    return bad == 0 ? 0 : 1;
}

} // namespace bpbench
