/**
 * @file
 * `bp` — command-line driver for the BarrierPoint pipeline.
 *
 * Every subcommand is a thin shell over bp::Experiment
 * (core/experiment.h): stages are hydrated from on-disk artifacts
 * (core/artifacts.h), computed on demand, and persisted for the next
 * process, making the paper's cost split operational across
 * processes: `profile` and `analyze` are paid once per workload, then
 * any number of `simulate` jobs — one per machine configuration —
 * reuse the same analysis artifact. `sweep` runs the whole
 * profile-once/simulate-many session in one go against a shared
 * artifact directory.
 *
 *   bp profile   --workload npb-cg --threads 8 -o cg.profile.bp
 *   bp analyze   --profile cg.profile.bp -o cg.analysis.bp
 *   bp simulate  --analysis cg.analysis.bp --machine 8-core \
 *                -o cg.8c.result.bp
 *   bp reference --analysis cg.analysis.bp --machine 8-core \
 *                -o cg.8c.reference.bp
 *   bp report    --analysis cg.analysis.bp --result cg.8c.result.bp \
 *                [--reference cg.8c.reference.bp]
 *   bp sweep     --workload npb-cg --machines 8-core,16-core,32-core \
 *                --artifacts cg.artifacts
 *
 * Recorded traces (src/trace_io/) are workloads too: `bp record`
 * dumps any workload's full micro-op stream to a `.bptrace` file,
 * `bp ingest` validates one, and `trace:<path>` replays one anywhere
 * a workload name is accepted — producing bit-identical profiles,
 * analyses, and estimates to the workload it recorded. `bp digest`
 * prints a content digest of an artifact's stage payload so two such
 * runs can be compared from the shell.
 *
 *   bp record    --workload npb-cg --threads 8 -o cg.bptrace
 *   bp ingest    --trace cg.bptrace --verify yes
 *   bp profile   --workload trace:cg.bptrace -o cg.profile.bp
 *   bp digest    --artifact cg.profile.bp
 *
 * Exit codes: 0 success, 1 runtime failure (unreadable or mismatched
 * artifacts, corrupt traces, simulation errors, any other exception
 * such as exhausted memory), 2 usage error
 * (unknown command or option, bad value, unknown workload/machine
 * name, missing trace file).
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/barrierpoint.h"
#include "src/support/byte_size.h"
#include "src/support/core_set.h"
#include "src/support/parse_uint.h"
#include "src/support/logging.h"
#include "src/support/serialize.h"
#include "src/support/stats.h"
#include "src/trace_io/trace_reader.h"
#include "src/trace_io/trace_writer.h"

namespace bp {
namespace {

/** Bad invocation (exit 2) — distinct from runtime failures (exit 1). */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

std::string
usageText()
{
    std::string text =
        "usage: bp <command> [options]\n"
        "\n"
        "commands:\n"
        "  profile    profile a workload's regions (one-time cost)\n"
        "               --workload NAME [--threads N] [--scale S] [--seed X]\n"
        "               [--profiling exact|sampled:R|sampled_adaptive:S]\n"
        "               [--jobs J] -o FILE\n"
        "  analyze    select barrierpoints from a profile artifact\n"
        "               --profile FILE [--signature bbv|reuse_dist|combine]\n"
        "               [--dim D] [--max-k K] [--significance F] [--jobs J]\n"
        "               [--streaming yes] [--memory-budget SIZE]\n"
        "               -o FILE\n"
        "  simulate   detailed-simulate only the barrierpoints\n"
        "               --analysis FILE --machine NAME [--warmup mru|cold]\n"
        "               [--snapshots FILE] [--jobs J] -o FILE\n"
        "  reference  detailed-simulate every region (the costly baseline)\n"
        "               --analysis FILE --machine NAME -o FILE\n"
        "  report     reconstruct whole-program metrics from artifacts\n"
        "               --analysis FILE --result FILE [--reference FILE]\n"
        "  sweep      profile once, simulate many machines, in one session\n"
        "               --workload NAME [--threads N] [--scale S] [--seed X]\n"
        "               [--machines NAME,NAME,...] [--warmup mru|cold]\n"
        "               [--signature bbv|reuse_dist|combine] [--dim D]\n"
        "               [--max-k K] [--significance F] [--jobs J]\n"
        "               [--profiling exact|sampled:R|sampled_adaptive:S]\n"
        "               [--streaming yes] [--memory-budget SIZE]\n"
        "               [--artifacts DIR] [--reference yes]\n"
        "  record     record a workload's full trace to a .bptrace file\n"
        "               --workload NAME [--threads N] [--scale S] [--seed X]\n"
        "               [--buffer SIZE] -o FILE\n"
        "  ingest     validate a recorded trace and print its shape\n"
        "               --trace FILE [--verify yes]\n"
        "  digest     print a content digest of an artifact's payload\n"
        "               --artifact FILE\n"
        "  help       print this message (also: bp --help)\n"
        "\n";
    text += "workloads: " + joined(workloadNames()) + ",\n"
            "           or trace:<path> to replay a .bptrace recording "
            "(see 'bp record')\n";
    text += "machines:  " + joined(MachineConfig::knownNames()) +
            ", or any \"<N>-core\" with N in [1, " +
            std::to_string(kMaxCores) + "]\n";
    return text;
}

/** Tiny --key value argument list with required/optional lookups. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 0; i < argc; ++i) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0 && key != "-o")
                throw UsageError("unexpected argument '" + key +
                                 "' (options are --key value)");
            if (i + 1 >= argc)
                throw UsageError("option '" + key +
                                 "' is missing its value");
            keys_.push_back(key == "-o" ? "--output" : key);
            values_.push_back(argv[++i]);
            used_.push_back(false);
        }
    }

    const std::string *
    find(const std::string &key) const
    {
        for (size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] == key) {
                used_[i] = true;
                return &values_[i];
            }
        }
        return nullptr;
    }

    std::string
    required(const std::string &key) const
    {
        const std::string *value = find(key);
        if (!value)
            throw UsageError("missing required option '" + key + "'");
        return *value;
    }

    std::string
    optional(const std::string &key, const std::string &fallback) const
    {
        const std::string *value = find(key);
        return value ? *value : fallback;
    }

    uint64_t
    integer(const std::string &key, uint64_t fallback) const
    {
        const std::string *value = find(key);
        if (!value)
            return fallback;
        // Strict full-consumption parse: signs, whitespace, trailing
        // junk, and overflow are all usage errors, never wrapped or
        // truncated values (strtoull accepted "8x" as 8 and "-1" as
        // 2^64 - 1 here once).
        const std::optional<uint64_t> parsed = parseUint(*value);
        if (!parsed)
            throw UsageError("option '" + key +
                             "' wants a non-negative integer, got '" +
                             *value + "'");
        return *parsed;
    }

    double
    real(const std::string &key, double fallback) const
    {
        const std::string *value = find(key);
        if (!value)
            return fallback;
        // Strict like integer(): "nan", "inf" and "1e400" are usage
        // errors, never a value the range checks cannot order.
        const std::optional<double> parsed = parseReal(*value);
        if (!parsed)
            throw UsageError("option '" + key +
                             "' wants a finite number, got '" + *value +
                             "'");
        return *parsed;
    }

    bool
    flag(const std::string &key) const
    {
        const std::string *value = find(key);
        if (!value)
            return false;
        if (*value == "yes" || *value == "true" || *value == "1")
            return true;
        if (*value == "no" || *value == "false" || *value == "0")
            return false;
        throw UsageError("option '" + key + "' wants yes or no, got '" +
                         *value + "'");
    }

    /** Reject typo'd options that nothing consumed. */
    void
    finish() const
    {
        for (size_t i = 0; i < keys_.size(); ++i) {
            if (!used_[i])
                throw UsageError("unknown option '" + keys_[i] + "'");
        }
    }

  private:
    std::vector<std::string> keys_;
    std::vector<std::string> values_;
    mutable std::vector<bool> used_;
};

SignatureKind
parseSignatureKind(const std::string &name)
{
    for (const SignatureKind kind :
         {SignatureKind::Bbv, SignatureKind::Ldv, SignatureKind::Combined}) {
        if (name == signatureKindName(kind))
            return kind;
    }
    throw UsageError("unknown signature kind '" + name +
                     "' (bbv, reuse_dist, combine)");
}

/**
 * Parse `--profiling exact | sampled:R | sampled_adaptive:S`. Range
 * violations are usage errors (exit 2), never assertion failures: the
 * ProfilingConfig factories assert the same ranges, so every value is
 * validated here first.
 */
ProfilingConfig
parseProfilingConfig(const std::string &arg)
{
    if (arg == "exact")
        return ProfilingConfig::exact();
    const size_t colon = arg.find(':');
    const std::string mode = arg.substr(0, colon);
    const std::string value =
        colon == std::string::npos ? "" : arg.substr(colon + 1);
    if (mode == "sampled") {
        const std::optional<double> rate = parseReal(value);
        if (!rate)
            throw UsageError("--profiling sampled wants a rate "
                             "(sampled:R), got '" +
                             arg + "'");
        if (!(*rate > 0.0 && *rate <= 1.0))
            throw UsageError(
                "--profiling sampling rate must lie in (0, 1], got '" +
                value + "'");
        return ProfilingConfig::sampled(*rate);
    }
    if (mode == "sampled_adaptive" || mode == "adaptive") {
        const std::optional<uint64_t> parsed = parseUint(value);
        if (!parsed)
            throw UsageError("--profiling sampled_adaptive wants a line "
                             "budget (sampled_adaptive:S), got '" +
                             arg + "'");
        const uint64_t s_max = *parsed;
        if (s_max < 1 || s_max > kMaxTrackedLines)
            throw UsageError("--profiling adaptive line budget must lie "
                             "in [1, " +
                             std::to_string(kMaxTrackedLines) +
                             "], got '" + value + "'");
        return ProfilingConfig::sampledAdaptive(s_max);
    }
    throw UsageError("unknown profiling mode '" + arg +
                     "' (exact, sampled:R, sampled_adaptive:S)");
}

/** parseByteSize() with the CLI's error convention (exit 2). */
uint64_t
parseSizeOption(const std::string &option, const std::string &value)
{
    const std::optional<uint64_t> bytes = parseByteSize(value);
    if (!bytes)
        throw UsageError("option '" + option +
                         "' wants a positive size like 256M (optional "
                         "K/M/G suffix), got '" + value + "'");
    return *bytes;
}

/**
 * Parse `--streaming yes|no` plus its dependent `--memory-budget SIZE`
 * into @p streaming. The budget only makes sense with streaming on;
 * passing it alone is a usage error, not a silent no-op.
 */
void
streamingFromArgs(const Args &args, StreamingConfig &streaming)
{
    streaming.enabled = args.flag("--streaming");
    const std::string *budget = args.find("--memory-budget");
    if (budget && !streaming.enabled)
        throw UsageError(
            "--memory-budget is only meaningful with --streaming yes");
    if (budget)
        streaming.memoryBudgetBytes =
            parseSizeOption("--memory-budget", *budget);
}

WarmupPolicy
parseWarmupPolicy(const std::string &name)
{
    if (name == "mru")
        return WarmupPolicy::MruReplay;
    if (name == "cold")
        return WarmupPolicy::Cold;
    throw UsageError("unknown warmup policy '" + name + "' (mru, cold)");
}

/** Registry lookup that lists the valid names on a miss. */
void
checkWorkloadName(const std::string &name)
{
    for (const std::string &known : workloadNames()) {
        if (name == known)
            return;
    }
    throw UsageError("unknown workload '" + name +
                     "' (workloads: " + joined(workloadNames()) + ")");
}

/** Machine lookup that lists the valid names on a miss. */
MachineConfig
machineByName(const std::string &name)
{
    std::optional<MachineConfig> machine = MachineConfig::tryByName(name);
    if (!machine)
        throw UsageError(
            "unknown machine '" + name +
            "' (machines: " + joined(MachineConfig::knownNames()) +
            ", or any \"<N>-core\" with N in [1, " +
            std::to_string(kMaxCores) + "])");
    return *std::move(machine);
}

WorkloadSpec
workloadSpecFromArgs(const Args &args)
{
    WorkloadSpec spec;
    spec.name = args.required("--workload");

    // Scheme-prefixed names are external workloads. Everything that
    // would make the registry call fatal() (exit 1) is promoted to a
    // usage error (exit 2) here: a bad scheme, a missing file, or
    // parameters that cannot apply to a recording.
    const size_t colon = spec.name.find(':');
    if (colon != std::string::npos) {
        const std::string scheme = spec.name.substr(0, colon);
        const std::string path = spec.name.substr(colon + 1);
        if (scheme != "trace")
            throw UsageError("unknown workload scheme '" + scheme +
                             ":' (supported: trace:<path>)");
        if (path.empty())
            throw UsageError(
                "trace: wants a file path, as in trace:run.bptrace");
        if (args.find("--threads") || args.find("--scale") ||
            args.find("--seed"))
            throw UsageError(
                "--threads/--scale/--seed do not apply to a trace "
                "workload; a recording replays with the thread count "
                "it was recorded at");
        if (!fileExists(path))
            throw UsageError("trace file '" + path + "' does not exist");
        // Placeholder parameters: the registry takes everything from
        // the file, and Experiment re-describes the spec from the
        // opened workload.
        spec.threads = 1;
        spec.scale = 1.0;
        spec.seed = 0;
        return spec;
    }

    // Range-checked before narrowing: 2^32 + 1 must not wrap to 1.
    const uint64_t threads = args.integer("--threads", 8);
    spec.scale = args.real("--scale", 1.0);
    spec.seed = args.integer("--seed", 12345);
    checkWorkloadName(spec.name);
    if (threads < 1 || threads > kMaxCores)
        throw UsageError("--threads must be in [1, " +
                         std::to_string(kMaxCores) + "], got " +
                         std::to_string(threads));
    spec.threads = static_cast<unsigned>(threads);
    if (spec.scale <= 0.0)
        throw UsageError("--scale must be positive");
    return spec;
}

/** Worker count for the ExecutionContext; ThreadPool caps at 1024. */
unsigned
jobsFromArgs(const Args &args)
{
    const uint64_t jobs = args.integer("--jobs", 1);
    if (jobs > 1024)
        throw UsageError("--jobs must be in [0, 1024] (0 = hardware "
                         "concurrency), got " +
                         std::to_string(jobs));
    return static_cast<unsigned>(jobs);
}

/** A count option in [1, UINT32_MAX]: zero would panic the clustering
 *  stage and a wider value would wrap. */
unsigned
countFromArgs(const Args &args, const std::string &key, unsigned fallback)
{
    const uint64_t count = args.integer(key, fallback);
    if (count == 0 || count > std::numeric_limits<uint32_t>::max())
        throw UsageError(key + " must be in [1, " +
                         std::to_string(std::numeric_limits<uint32_t>::max()) +
                         "], got " + std::to_string(count));
    return static_cast<unsigned>(count);
}

BarrierPointOptions
analysisOptionsFromArgs(const Args &args)
{
    BarrierPointOptions options;
    options.signature.kind =
        parseSignatureKind(args.optional("--signature", "combine"));
    options.clustering.dim =
        countFromArgs(args, "--dim", options.clustering.dim);
    options.clustering.maxK =
        countFromArgs(args, "--max-k", options.clustering.maxK);
    options.significance =
        args.real("--significance", options.significance);
    if (options.significance < 0.0 || options.significance > 1.0)
        throw UsageError("--significance must lie in [0, 1]");
    return options;
}

int
cmdProfile(const Args &args)
{
    const WorkloadSpec spec = workloadSpecFromArgs(args);
    const unsigned jobs = jobsFromArgs(args);
    const std::string out = args.required("--output");
    Experiment::Config config;
    config.options.profiling =
        parseProfilingConfig(args.optional("--profiling", "exact"));
    args.finish();

    Experiment experiment(spec, config, ExecutionContext(jobs));
    experiment.exportProfiles(out);
    const auto &profiles = experiment.profiles();
    std::printf("profiled %s (%s): %zu regions, %llu instructions -> %s\n",
                spec.name.c_str(),
                config.options.profiling.describe().c_str(),
                profiles.size(),
                static_cast<unsigned long long>([&] {
                    uint64_t total = 0;
                    for (const auto &profile : profiles)
                        total += profile.instructions();
                    return total;
                }()),
                out.c_str());
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    const std::string in = args.required("--profile");
    const std::string out = args.required("--output");
    Experiment::Config config;
    config.options = analysisOptionsFromArgs(args);
    streamingFromArgs(args, config.streaming);
    const unsigned jobs = jobsFromArgs(args);
    args.finish();

    ProfileArtifact profile = loadProfileArtifact(in);
    // The profiles carry the mode they were collected under; adopting
    // it keys the analysis's options hash to the profiling knob, so a
    // sampled-profile analysis can never be mistaken for exact.
    config.options.profiling = profile.profiling;
    Experiment experiment(profile.workload, config, ExecutionContext(jobs));
    experiment.seedProfiles(std::move(profile.profiles));
    experiment.exportAnalysis(out);

    const BarrierPointAnalysis &analysis = experiment.analysis();
    std::printf("%s: %zu barrierpoints (%u significant) for %u regions "
                "-> %s\n",
                profile.workload.name.c_str(), analysis.points.size(),
                analysis.numSignificant(), analysis.numRegions(),
                out.c_str());
    std::printf("serial speedup %.1fx, parallel %.1fx, resources %.1fx\n",
                analysis.serialSpeedup(), analysis.parallelSpeedup(),
                analysis.resourceReduction());
    return 0;
}

int
cmdSimulate(const Args &args)
{
    const std::string in = args.required("--analysis");
    const std::string machine_name = args.required("--machine");
    const std::string out = args.required("--output");
    const WarmupPolicy policy =
        parseWarmupPolicy(args.optional("--warmup", "mru"));
    const std::string snapshot_path = args.optional("--snapshots", "");
    const unsigned jobs = jobsFromArgs(args);
    args.finish();
    const MachineConfig machine = machineByName(machine_name);
    if (policy == WarmupPolicy::Cold && !snapshot_path.empty())
        throw UsageError("--snapshots is only meaningful with --warmup mru");

    const AnalysisArtifact artifact = loadAnalysisArtifact(in);
    Experiment experiment(artifact.workload, {}, ExecutionContext(jobs));
    experiment.seedAnalysis(artifact.analysis);

    bool snapshots_reused = false;
    if (policy == WarmupPolicy::MruReplay && !snapshot_path.empty()) {
        snapshots_reused =
            experiment.trySeedSnapshots(machine, snapshot_path);
        if (snapshots_reused)
            inform("reusing MRU snapshots from %s", snapshot_path.c_str());
    }

    const SimulationResult &run = experiment.simulate(machine, policy);

    if (policy == WarmupPolicy::MruReplay && !snapshot_path.empty() &&
        !snapshots_reused) {
        experiment.exportSnapshots(machine, snapshot_path);
        inform("captured MRU snapshots -> %s", snapshot_path.c_str());
    }

    RunResultArtifact result;
    result.workload = artifact.workload;
    result.machine = machine.name;
    result.flavor =
        std::string("barrierpoints-") + warmupPolicyName(policy);
    result.optionsHash = artifact.optionsHash;
    result.result.regions = run.stats;
    saveArtifact(out, result);

    std::printf("%s on %s (%s): %zu barrierpoints simulated -> %s\n",
                artifact.workload.name.c_str(), machine.name.c_str(),
                result.flavor.c_str(), run.stats.size(), out.c_str());
    std::printf("estimated cycles %.0f, IPC %.4f, DRAM APKI %.3f\n",
                run.estimate.totalCycles, run.estimate.ipc(),
                run.estimate.dramApki());
    return 0;
}

int
cmdReference(const Args &args)
{
    const std::string in = args.required("--analysis");
    const std::string machine_name = args.required("--machine");
    const std::string out = args.required("--output");
    args.finish();
    const MachineConfig machine = machineByName(machine_name);

    const AnalysisArtifact artifact = loadAnalysisArtifact(in);
    Experiment experiment(artifact.workload);

    RunResultArtifact result;
    result.workload = artifact.workload;
    result.machine = machine.name;
    result.flavor = "reference";
    result.result = experiment.reference(machine);
    saveArtifact(out, result);
    std::printf("%s on %s: %zu regions simulated in full -> %s\n",
                artifact.workload.name.c_str(), machine.name.c_str(),
                result.result.regions.size(), out.c_str());
    std::printf("reference cycles %.0f, IPC %.4f\n",
                result.result.totalCycles(), result.result.ipc());
    return 0;
}

int
cmdReport(const Args &args)
{
    const std::string analysis_path = args.required("--analysis");
    const std::string result_path = args.required("--result");
    const std::string reference_path = args.optional("--reference", "");
    args.finish();

    const AnalysisArtifact artifact = loadAnalysisArtifact(analysis_path);
    const RunResultArtifact result = loadRunResultArtifact(result_path);
    if (result.workload != artifact.workload)
        fatal("result artifact %s was produced for a different workload "
              "than analysis %s",
              result_path.c_str(), analysis_path.c_str());
    // Flavor/size first: passing a reference run as --result is the
    // common mix-up and deserves its own message (reference artifacts
    // carry no options hash, so the hash check would misfire on them).
    if (result.flavor == "reference")
        fatal("result artifact %s is a reference run; pass it as "
              "--reference and a barrierpoint result as --result",
              result_path.c_str());
    if (result.result.regions.size() != artifact.analysis.points.size())
        fatal("result artifact %s holds %zu records but the analysis has "
              "%zu barrierpoints (is it a reference run?)",
              result_path.c_str(), result.result.regions.size(),
              artifact.analysis.points.size());
    if (result.optionsHash != artifact.optionsHash)
        fatal("result artifact %s was simulated from an analysis with "
              "different options than %s",
              result_path.c_str(), analysis_path.c_str());

    const BarrierPointAnalysis &analysis = artifact.analysis;
    std::printf("workload %s (%u threads), machine %s, warmup %s\n",
                artifact.workload.name.c_str(), artifact.workload.threads,
                result.machine.c_str(), result.flavor.c_str());
    std::printf("%-8s %-8s %12s %12s %10s %6s\n", "point", "region",
                "multiplier", "weight%", "ipc", "sig");
    for (size_t j = 0; j < analysis.points.size(); ++j) {
        const BarrierPoint &point = analysis.points[j];
        std::printf("%-8zu %-8u %12.4f %12.4f %10.4f %6s\n", j,
                    point.region, point.multiplier,
                    100.0 * point.weightFraction,
                    result.result.regions[j].ipc(),
                    point.significant ? "yes" : "no");
    }

    const Estimate estimate =
        reconstruct(analysis, result.result.regions);
    std::printf("\nestimate: cycles %.17g, instructions %.17g, "
                "IPC %.6f, DRAM APKI %.4f\n",
                estimate.totalCycles, estimate.totalInstructions,
                estimate.ipc(), estimate.dramApki());

    if (!reference_path.empty()) {
        const RunResultArtifact reference =
            loadRunResultArtifact(reference_path);
        if (reference.workload != artifact.workload)
            fatal("reference artifact %s was produced for a different "
                  "workload",
                  reference_path.c_str());
        if (reference.machine != result.machine)
            fatal("reference artifact %s is for machine %s but the "
                  "result is for %s",
                  reference_path.c_str(), reference.machine.c_str(),
                  result.machine.c_str());
        const double ref_cycles = reference.result.totalCycles();
        std::printf("reference: cycles %.17g, IPC %.6f\n", ref_cycles,
                    reference.result.ipc());
        std::printf("reconstruction error: %.3f%% (cycles), "
                    "%.3f%% (IPC)\n",
                    percentAbsError(estimate.totalCycles, ref_cycles),
                    percentAbsError(estimate.ipc(),
                                    reference.result.ipc()));
    }
    return 0;
}

int
cmdSweep(const Args &args)
{
    Experiment::Config config;
    const WorkloadSpec spec = workloadSpecFromArgs(args);
    config.options = analysisOptionsFromArgs(args);
    config.options.profiling =
        parseProfilingConfig(args.optional("--profiling", "exact"));
    config.artifactDir = args.optional("--artifacts", "");
    streamingFromArgs(args, config.streaming);
    const WarmupPolicy policy =
        parseWarmupPolicy(args.optional("--warmup", "mru"));
    const unsigned jobs = jobsFromArgs(args);
    const std::string *machines_opt = args.find("--machines");
    const bool with_reference = args.flag("--reference");
    args.finish();

    // The experiment must exist before the default machine list can be
    // derived: a trace workload's thread count lives in the file, not
    // in the command line (the canonical spec_ has it either way).
    Experiment experiment(spec, config, ExecutionContext(jobs));
    const std::string machines_arg =
        machines_opt ? *machines_opt
                     : std::to_string(experiment.spec().threads) + "-core";

    std::vector<MachineConfig> machines;
    for (size_t begin = 0; begin <= machines_arg.size();) {
        size_t end = machines_arg.find(',', begin);
        if (end == std::string::npos)
            end = machines_arg.size();
        const std::string name = machines_arg.substr(begin, end - begin);
        if (name.empty())
            throw UsageError("--machines wants a comma-separated list of "
                             "machine names, got '" +
                             machines_arg + "'");
        machines.push_back(machineByName(name));
        begin = end + 1;
    }

    const auto results = experiment.sweep(machines, policy);

    const std::string artifacts_note =
        config.artifactDir.empty()
            ? ""
            : " [artifacts: " + config.artifactDir + "]";
    std::printf("%s (%u threads): %zu barrierpoints, %zu machines "
                "(warmup %s)%s\n",
                experiment.spec().name.c_str(), experiment.spec().threads,
                experiment.analysis().points.size(), machines.size(),
                warmupPolicyName(policy), artifacts_note.c_str());
    std::printf("%-12s %18s %10s %10s", "machine", "cycles", "ipc",
                "apki");
    if (with_reference)
        std::printf(" %18s %8s", "ref cycles", "err%");
    std::printf("\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const SimulationResult &run = results[i];
        std::printf("%-12s %18.0f %10.4f %10.3f", run.machine.c_str(),
                    run.estimate.totalCycles, run.estimate.ipc(),
                    run.estimate.dramApki());
        if (with_reference) {
            const RunResult &reference =
                experiment.reference(machines[i]);
            std::printf(" %18.0f %8.2f", reference.totalCycles(),
                        percentAbsError(run.estimate.totalCycles,
                                        reference.totalCycles()));
        }
        std::printf("\n");
    }
    return 0;
}

int
cmdRecord(const Args &args)
{
    const WorkloadSpec spec = workloadSpecFromArgs(args);
    const std::string out = args.required("--output");
    const std::string *buffer_arg = args.find("--buffer");
    args.finish();
    const size_t buffer_bytes =
        buffer_arg
            ? static_cast<size_t>(parseSizeOption("--buffer", *buffer_arg))
            : TraceWriter::kDefaultBufferBytes;

    const std::unique_ptr<Workload> workload = spec.instantiate();
    TraceWriter writer(out, workload->threadCount(), buffer_bytes);
    for (unsigned i = 0; i < workload->regionCount(); ++i)
        writer.appendRegion(workload->generateRegion(i));
    writer.close();
    std::printf("recorded %s: %u threads, %llu regions, %llu records "
                "(%llu bytes) -> %s\n",
                workload->name().c_str(), writer.threadCount(),
                static_cast<unsigned long long>(writer.regionCount()),
                static_cast<unsigned long long>(writer.recordCount()),
                static_cast<unsigned long long>(writer.fileBytes()),
                out.c_str());
    return 0;
}

int
cmdIngest(const Args &args)
{
    const std::string path = args.required("--trace");
    const bool verify = args.flag("--verify");
    args.finish();

    // A missing or corrupt file is a runtime failure (exit 1): the
    // trace is the object under inspection here, like an artifact
    // passed to analyze/report — not a workload-name usage error.
    TraceReader reader(path);
    if (verify)
        reader.verifyAll();
    std::printf("%s: %u threads, %llu regions, %llu ops "
                "(%llu records, %llu bytes), content %016llx%s\n",
                path.c_str(), reader.threadCount(),
                static_cast<unsigned long long>(reader.regionCount()),
                static_cast<unsigned long long>(reader.opCount()),
                static_cast<unsigned long long>(reader.recordCount()),
                static_cast<unsigned long long>(reader.fileBytes()),
                static_cast<unsigned long long>(reader.contentHash()),
                verify ? ", all regions verified" : "");
    return 0;
}

int
cmdDigest(const Args &args)
{
    const std::string path = args.required("--artifact");
    args.finish();
    std::printf("%016llx  %s\n",
                static_cast<unsigned long long>(artifactPayloadDigest(path)),
                path.c_str());
    return 0;
}

int
bpMain(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs(usageText().c_str(), stderr);
        return 2;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        std::fputs(usageText().c_str(), stdout);
        return 0;
    }
    // `bp <command> --help` is the conventional spelling; honor it
    // before Args insists every --option carries a value. Only
    // option-key positions count — a --help where a *value* belongs
    // (e.g. `bp profile --workload --help`) stays a usage error.
    for (int i = 2; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usageText().c_str(), stdout);
            return 0;
        }
        if (arg.rfind("--", 0) != 0 && arg != "-o")
            break;
    }
    try {
        const Args args(argc - 2, argv + 2);
        if (command == "profile")
            return cmdProfile(args);
        if (command == "analyze")
            return cmdAnalyze(args);
        if (command == "simulate")
            return cmdSimulate(args);
        if (command == "reference")
            return cmdReference(args);
        if (command == "report")
            return cmdReport(args);
        if (command == "sweep")
            return cmdSweep(args);
        if (command == "record")
            return cmdRecord(args);
        if (command == "ingest")
            return cmdIngest(args);
        if (command == "digest")
            return cmdDigest(args);
        throw UsageError("unknown command '" + command +
                         "' (profile, analyze, simulate, reference, "
                         "report, sweep, record, ingest, digest)");
    } catch (const UsageError &error) {
        std::fprintf(stderr, "bp: %s\n(try 'bp --help')\n", error.what());
        return 2;
    } catch (const std::exception &error) {
        fatal("%s", error.what());
    }
}

} // namespace
} // namespace bp

int
main(int argc, char **argv)
{
    return bp::bpMain(argc, argv);
}
