#include <algorithm>
#include <chrono>
#include <system_error>

#include "bench.h"
#include "regions_app.h"
#include "spans.h"
#include "src/trace_io/trace_workload.h"
#include "src/trace_io/trace_writer.h"

namespace bpbench {

namespace {

struct Named
{
    WorkloadKind kind;
    const char *name;
};

constexpr Named kWorkloads[] = {
    {WorkloadKind::Paper8c, "paper-8c"},
    {WorkloadKind::Sweep32c, "sweep-32c"},
    {WorkloadKind::TraceRegions, "trace-regions"},
};

/** The sweep-32c applications: profile once, simulate many. */
const char *const kSweepApps[] = {"npb-ft", "npb-is", "parsec-bodytrack",
                                  "npb-mg"};

/** 32 cores with @p mb MB of L3 per socket (Table I has 8 MB). */
bp::MachineConfig
cores32WithL3(unsigned mb)
{
    bp::MachineConfig machine = bp::MachineConfig::cores32();
    machine.mem.l3.sizeBytes = uint64_t{mb} << 20;
    machine.name = "32-core-l3-" + std::to_string(mb) + "M";
    return machine;
}

/**
 * Four machines that differ in LLC size per socket and in socket
 * count; 32-core/16 MB and 64-core/8 MB have equal capture capacities
 * and so share one snapshot set.
 */
std::vector<bp::MachineConfig>
sweepMachines()
{
    return {cores32WithL3(4), bp::MachineConfig::cores32(),
            cores32WithL3(16), bp::MachineConfig::cores64()};
}

bp::WorkloadParams
paramsOf(unsigned threads, uint64_t seed)
{
    bp::WorkloadParams params;
    params.threads = threads;
    params.scale = 1.0;
    params.seed = seed;
    return params;
}

/** Record the trace-regions application; @return generated ops. */
uint64_t
recordRegionsApp(const std::filesystem::path &path, uint64_t seed,
                 SpanRecorder *spans)
{
    const std::unique_ptr<bp::Workload> app = makeRegionsApp(seed);
    bp::TraceWriter writer(path.string(), app->threadCount());
    uint64_t ops = 0;
    for (unsigned r = 0; r < app->regionCount(); ++r) {
        std::optional<bp::RegionTrace> trace;
        {
            ScopedSpan span(spans, "workloads.generateRegion");
            trace.emplace(app->generateRegion(r));
            span.addWork(trace->totalOps());
        }
        ops += trace->totalOps();
        ScopedSpan span(spans, "trace_io.appendRegion");
        writer.appendRegion(*trace);
    }
    ScopedSpan span(spans, "trace_io.close");
    writer.close();
    span.addWork(writer.fileBytes());
    return ops;
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
total(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum;
}

std::optional<WorkloadKind>
parseWorkloadKind(const std::string &name)
{
    for (const Named &w : kWorkloads)
        if (name == w.name)
            return w.kind;
    return std::nullopt;
}

const char *
workloadKindName(WorkloadKind kind)
{
    for (const Named &w : kWorkloads)
        if (kind == w.kind)
            return w.name;
    return "?";
}

Setup::~Setup()
{
    apps.clear();  // unmap the trace before its file goes
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
}

std::unique_ptr<Setup>
makeSetup(WorkloadKind kind, uint64_t seed, unsigned workers,
          const std::filesystem::path &root, SpanRecorder *spans)
{
    static unsigned serial = 0;
    auto setup = std::make_unique<Setup>();
    setup->exec.emplace(workers);
    setup->dir = root / ("setup-" + std::to_string(serial++));
    std::filesystem::create_directories(setup->dir);

    switch (kind) {
      case WorkloadKind::Paper8c:
        for (const std::string &name : bp::workloadNames()) {
            App app;
            app.label = name;
            app.workload = bp::makeWorkload(name, paramsOf(8, seed));
            app.machines = {bp::MachineConfig::cores8()};
            setup->apps.push_back(std::move(app));
        }
        break;
      case WorkloadKind::Sweep32c:
        for (const char *name : kSweepApps) {
            App app;
            app.label = name;
            app.workload = bp::makeWorkload(name, paramsOf(32, seed));
            app.machines = sweepMachines();
            app.persist = true;
            setup->apps.push_back(std::move(app));
        }
        break;
      case WorkloadKind::TraceRegions: {
        setup->tracePath = setup->dir / "regions.bptrace";
        App app;
        app.label = "bench-regions";
        app.recordedOps = recordRegionsApp(setup->tracePath, seed, spans);
        {
            ScopedSpan span(spans, "trace_io.open");
            app.workload = bp::makeTraceWorkload(setup->tracePath.string());
        }
        app.machines = {bp::MachineConfig::withCores(kRegionsAppThreads)};
        setup->apps.push_back(std::move(app));
        break;
      }
    }
    return setup;
}

PassResult
runPass(Setup &setup, unsigned pass_index,
        const std::function<void()> &before_app)
{
    PassResult pass;
    for (App &app : setup.apps) {
        if (before_app)
            before_app();
        bp::Experiment::Config config;
        if (app.persist)
            config.artifactDir =
                (setup.dir / ("pass" + std::to_string(pass_index) + "-" +
                              app.label))
                    .string();
        double bp_seconds = 0.0;
        double ref_seconds = 0.0;
        try {
            const double t0 = now();
            bp::Experiment exp(*app.workload, config, *setup.exec);
            std::vector<bp::SimulationResult> sims;
            if (app.machines.size() == 1)
                sims.push_back(exp.simulate(app.machines.front()));
            else
                sims = exp.sweep(app.machines);
            const double t1 = now();
            std::vector<const bp::RunResult *> refs;
            for (const bp::MachineConfig &machine : app.machines)
                refs.push_back(&exp.reference(machine));
            const double t2 = now();
            bp_seconds = t1 - t0;
            ref_seconds = t2 - t1;
            for (size_t i = 0; i < app.machines.size(); ++i)
                pass.items.push_back(summarizeItem(
                    app.label + "@" + app.machines[i].name, exp.analysis(),
                    sims[i].stats, sims[i].estimate, *refs[i],
                    app.recordedOps));
        } catch (const std::exception &error) {
            for (const bp::MachineConfig &machine : app.machines)
                pass.items.push_back(failedItem(
                    app.label + "@" + machine.name, error.what()));
        }
        pass.bpSeconds.push_back(bp_seconds);
        pass.refSeconds.push_back(ref_seconds);
        if (app.persist) {
            std::error_code ignored;
            std::filesystem::remove_all(config.artifactDir, ignored);
        }
    }
    return pass;
}

double
robustTotal(const std::vector<PassResult> &passes,
            std::vector<double> PassResult::*times)
{
    double total = 0.0;
    for (size_t app = 0; app < (passes.front().*times).size(); ++app) {
        std::vector<double> samples;
        for (const PassResult &pass : passes)
            samples.push_back((pass.*times)[app]);
        total += median(samples);
    }
    return total;
}

} // namespace bpbench
