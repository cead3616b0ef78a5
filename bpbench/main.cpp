/**
 * @file
 * bpbench: the repository's end-to-end benchmark program.
 *
 *   bpbench --workload paper-8c|sweep-32c|trace-regions --tmp DIR
 *           [--seed N] [--seconds S] [--trace 0|1] [--workers N]
 *           [--trace-out FILE]
 *   bpbench --self-test
 *
 * Untraced (--trace 0): run whole passes over the workload's items
 * through bp::Experiment for about --seconds, timing a batch of
 * set-ups before each application, and report medians.
 * Traced (--trace 1): one traced pass through the pipeline.h free
 * functions, reporting per-layer metrics (see traced.cpp).
 *
 * Everything before the last line of stdout is for people: the
 * environment, one line per item with its check result and IEEE-754
 * digests, and one line per pass. The last line is one JSON object
 * with the keys correct, attempted, failed and metrics. run.py builds
 * this program and is the command to use (README.md).
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"
#include "bench/bench_util.h"

namespace bpbench {
namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bpbench: %s\n"
                 "usage: bpbench --workload paper-8c|sweep-32c|"
                 "trace-regions --tmp DIR [--seed N] [--seconds S]\n"
                 "               [--trace 0|1] [--workers N] "
                 "[--trace-out FILE]\n"
                 "       bpbench --self-test\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    std::optional<WorkloadKind> kind;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage((flag + " needs a value").c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            kind = parseWorkloadKind(value);
        else if (flag == "--seed")
            o.seed = bp::parseUintArg("--seed", value);
        else if (flag == "--seconds")
            o.seconds =
                static_cast<double>(bp::parseUintArg("--seconds", value));
        else if (flag == "--trace")
            o.trace = bp::parseUintArg("--trace", value) != 0;
        else if (flag == "--workers") {
            const uint64_t workers = bp::parseUintArg("--workers", value);
            if (workers < 1 || workers > 64)
                usage("--workers must be in [1, 64]");
            o.workers = static_cast<unsigned>(workers);
        }
        else if (flag == "--tmp")
            o.tmp = value;
        else if (flag == "--trace-out")
            o.traceOut = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!kind)
        usage("--workload must be paper-8c, sweep-32c or trace-regions");
    o.kind = *kind;
    if (o.tmp.empty())
        usage("--tmp is required");
    return o;
}

void
printEnvironment(const Options &o)
{
    std::printf("env {\"workload\": \"%s\", \"seed\": %llu, "
                "\"pool_workers\": %u, \"trace\": %d, \"nproc\": %ld, "
                "\"hardware_concurrency\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}\n",
                workloadKindName(o.kind),
                static_cast<unsigned long long>(o.seed),
                o.workers, o.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), BPBENCH_COMPILER,
                BPBENCH_BUILD_TYPE);
}

void
printItem(const ItemOutcome &item)
{
    std::printf("item %-34s %s est_cycles=%.17g ref_cycles=%.17g "
                "est_apki=%.17g ref_apki=%.17g est_digest=%016llx "
                "ref_digest=%016llx\n",
                item.name.c_str(), item.ok() ? "ok" : "FAIL", item.estCycles,
                item.refCycles, item.estApki, item.refApki,
                static_cast<unsigned long long>(item.estDigest),
                static_cast<unsigned long long>(item.refDigest));
    for (const std::string &failure : item.failures)
        std::printf("  check failed: %s\n", failure.c_str());
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    const char *sep = "";
    for (const Metric &m : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += std::string(sep) + "\"" + m.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
        sep = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Digests must repeat exactly in every pass of one run. */
bool
samePasses(const std::vector<PassResult> &passes)
{
    for (const PassResult &pass : passes) {
        if (pass.items.size() != passes.front().items.size())
            return false;
        for (size_t i = 0; i < pass.items.size(); ++i) {
            const ItemOutcome &a = pass.items[i];
            const ItemOutcome &b = passes.front().items[i];
            if (a.estDigest != b.estDigest || a.refDigest != b.refDigest)
                return false;
        }
    }
    return true;
}

int
runUntraced(const Options &o, double main_start)
{
    // Set-up is timed in rounds spread over the whole run, one before
    // each application of every pass: on a shared machine the cost of
    // such short work (on paper-8c and sweep-32c tens of microseconds,
    // mostly starting the pool's thread and making the temp dir) moves
    // from second to second, and one burst of set-ups would catch a
    // single moment. A round is a batch of set-ups, thrown away after
    // timing, and gives one sample: their mean time. setup_s is the
    // median sample. The first sample is the set-up the passes use,
    // timed from the start of main().
    const unsigned batch = o.kind == WorkloadKind::TraceRegions ? 1 : 10;
    std::unique_ptr<Setup> setup =
        makeSetup(o.kind, o.seed, o.workers, o.tmp, nullptr);
    std::vector<double> setup_samples = {now() - main_start};
    const auto sample_setups = [&] {
        double busy = 0.0;
        for (unsigned i = 0; i < batch; ++i) {
            const double t0 = now();
            const std::unique_ptr<Setup> spare =
                makeSetup(o.kind, o.seed, o.workers, o.tmp, nullptr);
            busy += now() - t0;
        }
        setup_samples.push_back(busy / batch);
    };

    std::vector<PassResult> passes;
    // Peak RSS through set-up and one pass: what a single session
    // needs. Later passes repeat the work only to time it, and the
    // allocator's state after earlier passes varies from run to run.
    double peak_rss_mb = 0.0;
    double last = 0.0;
    do {
        const double t0 = now();
        passes.push_back(runPass(
            *setup, static_cast<unsigned>(passes.size()), sample_setups));
        last = now() - t0;
        if (passes.size() == 1)
            peak_rss_mb = static_cast<double>(bp::peakRssBytes()) / 1048576.0;
        std::printf("pass %zu bp_wall_s=%.6f ref_wall_s=%.6f\n",
                    passes.size() - 1, total(passes.back().bpSeconds),
                    total(passes.back().refSeconds));
        std::fflush(stdout);
    } while (now() - main_start + last <= o.seconds);
    setup.reset();

    uint64_t attempted = 0;
    uint64_t failed = 0;
    for (const PassResult &pass : passes) {
        for (const ItemOutcome &item : pass.items) {
            ++attempted;
            failed += item.ok() ? 0 : 1;
        }
    }
    const std::vector<ItemOutcome> &items = passes.front().items;
    for (const ItemOutcome &item : items)
        printItem(item);
    const bool repeatable = samePasses(passes);
    if (!repeatable)
        std::printf("passes disagree: an Estimate or reference changed "
                    "between passes of one run\n");

    double ref_instr = 0.0;
    double bp_instr = 0.0;
    for (const ItemOutcome &item : items) {
        ref_instr += static_cast<double>(item.refInstructions);
        bp_instr += static_cast<double>(item.bpInstructions);
    }
    const Accuracy accuracy = meanAccuracy(items);
    std::printf("accuracy cycles_err_pct=%.17g apki_err_pct=%.17g (exact "
                "for this seed; reported, not gated)\n",
                accuracy.cyclesErrPct, accuracy.apkiErrPct);
    const double bp_wall = robustTotal(passes, &PassResult::bpSeconds);
    const double ref_wall = robustTotal(passes, &PassResult::refSeconds);
    std::printf("derived speedup_x=%.3f (ref_wall_s / bp_wall_s; reported, "
                "never gated) passes=%zu setups=%zu\n",
                ref_wall / bp_wall, passes.size(),
                (setup_samples.size() - 1) * batch + 1);

    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"bp_wall_s", bp_wall, "s"},
        {"ref_wall_s", ref_wall, "s"},
        {"work_reduction_x", bp_instr > 0 ? ref_instr / bp_instr : 0.0, "x"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"items_ok_pct",
         100.0 * static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "%"},
    };
    printResult(failed == 0 && repeatable, attempted, failed, metrics);
    return 0;
}

int
runTracedMode(const Options &o)
{
    const TracedResult result = runTraced(o);

    uint64_t failed = 0;
    for (const ItemOutcome &item : result.items) {
        printItem(item);
        failed += item.ok() ? 0 : 1;
    }
    for (const std::string &problem : result.problems)
        std::printf("traced run mismatch: %s\n", problem.c_str());
    const uint64_t attempted = result.items.size();
    printResult(failed == 0 && result.problems.empty() && attempted > 0,
                std::max<uint64_t>(attempted, 1), failed, result.metrics);
    return 0;
}

} // namespace
} // namespace bpbench

int
main(int argc, char **argv)
{
    using namespace bpbench;
    const double main_start = now();
    if (argc == 2 && std::string(argv[1]) == "--self-test")
        return runSelfTest();
    const Options options = parseArgs(argc, argv);
    printEnvironment(options);
    std::fflush(stdout);
    try {
        return options.trace ? runTracedMode(options)
                             : runUntraced(options, main_start);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "bpbench: %s\n", error.what());
        return 1;
    }
}
