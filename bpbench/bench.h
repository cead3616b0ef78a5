/**
 * @file
 * Shared declarations of the bpbench program.
 *
 * A *workload* is one of the three fixed input sets the benchmark
 * runs (paper-8c, sweep-32c, trace-regions). An *item* is one
 * (application, machine) Estimate together with its reference run;
 * an *app* is one Experiment's subject — one application with the
 * machines its Estimates are made for. See README.md for why each
 * workload exists and what every metric means.
 */
#ifndef BPBENCH_BENCH_H
#define BPBENCH_BENCH_H

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/barrierpoint.h"

namespace bpbench {

class SpanRecorder;

/** Default workload seed: WorkloadParams' own default. */
constexpr uint64_t kDefaultSeed = 12345;

/** Executors of the one ExecutionContext every stage shares. Fixed,
 *  not read from the host, so runs on any machine do the same work. */
constexpr unsigned kDefaultWorkers = 2;

/** Monotonic host time in seconds. */
double now();

/** Median of @p values (which must be non-empty). */
double median(std::vector<double> values);

enum class WorkloadKind { Paper8c, Sweep32c, TraceRegions };

std::optional<WorkloadKind> parseWorkloadKind(const std::string &name);
const char *workloadKindName(WorkloadKind kind);

/** One Experiment subject: an application and its target machines. */
struct App
{
    std::string label;
    std::unique_ptr<bp::Workload> workload;
    std::vector<bp::MachineConfig> machines;
    /** Persist every stage to a fresh artifact directory. */
    bool persist = false;
    /** trace-regions: micro-ops generated at record time (else 0). */
    uint64_t recordedOps = 0;
};

/** Everything a run prepares before its first timed stage. */
struct Setup
{
    std::optional<bp::ExecutionContext> exec;
    std::filesystem::path dir;  ///< this setup's temp dir
    std::vector<App> apps;
    /** trace-regions: the recorded .bptrace file (else empty). */
    std::filesystem::path tracePath;

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;
    /** Removes dir (artifacts and the recorded trace). */
    ~Setup();
};

/**
 * Instantiate the workload's applications, the shared pool of
 * @p workers executors and a temp dir under @p root; on trace-regions
 * also record the synthetic application to a .bptrace and open it.
 * Recording calls are traced into @p spans when it is non-null.
 */
std::unique_ptr<Setup> makeSetup(WorkloadKind kind, uint64_t seed,
                                 unsigned workers,
                                 const std::filesystem::path &root,
                                 SpanRecorder *spans);

/** Outcome of one item: check result, accuracy and digests. */
struct ItemOutcome
{
    std::string name;                   ///< "<app>@<machine>"
    std::vector<std::string> failures;  ///< empty when the item passed
    double estCycles = 0.0;
    double refCycles = 0.0;
    double estApki = 0.0;
    double refApki = 0.0;
    uint64_t refInstructions = 0;
    uint64_t bpInstructions = 0;  ///< simulated at the barrierpoints
    uint64_t estDigest = 0;
    uint64_t refDigest = 0;

    bool ok() const { return failures.empty(); }
};

/**
 * The per-item output check behind items_ok_pct. @return one message
 * per violated condition (empty when the item is correct):
 *  (a) a barrierpoint's simulated instructions differ from
 *      analysis.points[j].instructions;
 *  (b) the reference's instructions differ from the analysis total;
 *  (c) the Estimate's instructions differ from the reference's beyond
 *      round-off, or its cycles are non-finite or not positive;
 *  (d) with @p recorded_ops nonzero, the reference's (replayed)
 *      instruction total differs from it.
 */
std::vector<std::string> checkItem(
    const bp::BarrierPointAnalysis &analysis,
    const std::vector<bp::RegionStats> &point_stats,
    const bp::Estimate &estimate, const bp::RunResult &reference,
    uint64_t recorded_ops);

/** checkItem() plus accuracy figures and IEEE-754 digests. */
ItemOutcome summarizeItem(std::string name,
                          const bp::BarrierPointAnalysis &analysis,
                          const std::vector<bp::RegionStats> &point_stats,
                          const bp::Estimate &estimate,
                          const bp::RunResult &reference,
                          uint64_t recorded_ops);

/** Mean over items of |Estimate - reference| / reference, in %. */
struct Accuracy
{
    double cyclesErrPct = 0.0;
    double apkiErrPct = 0.0;  ///< of DRAM accesses per kilo-instruction
};
Accuracy meanAccuracy(const std::vector<ItemOutcome> &items);

/** Sum of @p values. */
double total(const std::vector<double> &values);

/** A failed item (an exception escaped its pipeline). */
ItemOutcome failedItem(std::string name, const std::string &why);

/** FNV-1a over serialized bytes: doubles enter as IEEE-754 images. */
uint64_t digestBytes(const std::vector<uint8_t> &bytes);

/**
 * Feed checkItem() genuine and deliberately tampered results of a
 * tiny workload; @return 0 when every tampering is caught and the
 * genuine item passes.
 */
int runSelfTest();

/** One untraced pass over every item of a setup. */
struct PassResult
{
    std::vector<double> bpSeconds;   ///< per app, in setup order
    std::vector<double> refSeconds;  ///< per app, in setup order
    std::vector<ItemOutcome> items;
};

/** Sum over apps of each app's median time over @p passes. */
double robustTotal(const std::vector<PassResult> &passes,
                   std::vector<double> PassResult::*times);

/**
 * Run every app of @p setup through bp::Experiment: a fresh session
 * per app, timed through its reconstructed Estimates (bp) and then
 * through reference() on each machine (ref). Persisting apps get a
 * fresh artifact directory per pass, removed afterwards. A non-empty
 * @p before_app runs, untimed, before each app.
 */
PassResult runPass(Setup &setup, unsigned pass_index,
                   const std::function<void()> &before_app = {});

/** The command line of one run (see main.cpp). */
struct Options
{
    WorkloadKind kind = WorkloadKind::Paper8c;
    uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    bool trace = false;
    unsigned workers = kDefaultWorkers;
    std::filesystem::path tmp;       ///< per-run temp dir
    std::filesystem::path traceOut;  ///< Chrome trace-event JSON
};

/** One reported metric, in output order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct TracedResult
{
    std::vector<Metric> metrics;     ///< the per-layer metrics
    std::vector<ItemOutcome> items;  ///< of the untraced comparison pass
    /** Mismatches between the traced and untraced paths. */
    std::vector<std::string> problems;
};

/** The traced run: see traced.cpp. */
TracedResult runTraced(const Options &options);

} // namespace bpbench

#endif // BPBENCH_BENCH_H
