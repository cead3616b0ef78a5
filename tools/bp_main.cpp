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
 * One table, kCommands, holds every command and its options; the
 * usage text, the dispatch and the command-line grammar all come from
 * it, and handlers read typed, range-checked values.
 *
 * Exit codes: 0 success, 1 runtime failure (unreadable or mismatched
 * artifacts, corrupt traces, simulation errors, exhausted memory, any
 * other exception), 2 usage error (unknown command or option, missing
 * or repeated option, bad value, unknown workload/machine name,
 * missing trace file).
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <new>
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

class Args;

/** One option: `key VALUE` as the usage shows it. */
struct Option
{
    const char *key;
    const char *value;
    bool required = false;
};

/** One row of kCommands. */
struct Command
{
    const char *name;
    const char *summary;
    int (*run)(const Args &);  ///< nullptr for `help`
    std::vector<Option> options;

    bool
    takes(const std::string &key) const
    {
        return std::any_of(options.begin(), options.end(),
                           [&](const Option &o) { return key == o.key; });
    }
};

/**
 * A command line checked against its command's row: every key is one
 * of the row's options, given once and followed by a value, and every
 * required option is present. Each typed accessor parses strictly —
 * signs, whitespace, trailing junk, overflow, "nan" and "inf" are usage
 * errors — and checks its own range before narrowing.
 */
class Args
{
  public:
    Args(const Command &command, int argc, char **argv) : command_(command)
    {
        for (int i = 0; i < argc; i += 2) {
            const std::string key = argv[i];
            if (!command.takes(key))
                throw UsageError("unknown option '" + key + "' for bp " +
                                 command.name + " (options are --key value)");
            if (i + 1 >= argc)
                throw UsageError("option '" + key +
                                 "' is missing its value");
            if (!values_.emplace(key, argv[i + 1]).second)
                throw UsageError("option '" + key + "' given twice");
        }
        for (const Option &option : command.options) {
            if (option.required && !values_.count(option.key))
                throw UsageError("missing required option '" +
                                 std::string(option.key) + "'");
        }
    }

    /** @return the value given for @p key, or nullptr. */
    const std::string *
    find(const std::string &key) const
    {
        BP_ASSERT(command_.takes(key), "option missing from kCommands");
        const auto it = values_.find(key);
        return it == values_.end() ? nullptr : &it->second;
    }

    std::string
    text(const std::string &key, const std::string &fallback = "") const
    {
        const std::string *value = find(key);
        return value ? *value : fallback;
    }

    template <typename T>
    T
    integer(const std::string &key, T fallback, T lo = 0,
            T hi = std::numeric_limits<T>::max()) const
    {
        return static_cast<T>(typed<uint64_t>(
            key, fallback, parseUint, "a non-negative integer", lo, hi));
    }

    double
    real(const std::string &key, double fallback, double lo, double hi) const
    {
        return typed(key, fallback, parseReal, "a finite number", lo, hi);
    }

    uint64_t
    bytes(const std::string &key, uint64_t fallback) const
    {
        return typed<uint64_t>(
            key, fallback, parseByteSize,
            "a positive size like 256M (optional K/M/G suffix)");
    }

    bool
    flag(const std::string &key) const
    {
        const std::string value = text(key, "no");
        if (value == "yes" || value == "true" || value == "1")
            return true;
        if (value == "no" || value == "false" || value == "0")
            return false;
        throw UsageError("option '" + key + "' wants yes or no, got '" +
                         value + "'");
    }

  private:
    /** The value of @p key as @p parse reads it, in [@p lo, @p hi]. */
    template <typename T, typename Parse>
    T
    typed(const std::string &key, T fallback, Parse parse, const char *wants,
          T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max()) const
    {
        const std::string *value = find(key);
        if (!value)
            return fallback;
        const std::optional<T> parsed = parse(*value);
        if (!parsed)
            throw UsageError("option '" + key + "' wants " + wants +
                             ", got '" + *value + "'");
        if (*parsed < lo || *parsed > hi)
            throw UsageError("option '" + key + "' must lie in [" +
                             shown(lo) + ", " + shown(hi) + "], got '" +
                             *value + "'");
        return *parsed;
    }

    /** The shortest decimal that reads back as @p value. */
    template <typename T>
    static std::string
    shown(T value)
    {
        char buffer[32];
        return std::string(
            buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
    }

    const Command &command_;
    std::map<std::string, std::string> values_;
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
        if (!rate || !(*rate > 0.0 && *rate <= 1.0))
            throw UsageError("--profiling sampled:R wants a sampling rate "
                             "R in (0, 1], got '" + arg + "'");
        return ProfilingConfig::sampled(*rate);
    }
    if (mode == "sampled_adaptive") {
        const std::optional<uint64_t> s_max = parseUint(value);
        if (!s_max || *s_max < 1 || *s_max > kMaxTrackedLines)
            throw UsageError("--profiling sampled_adaptive:S wants a line "
                             "budget S in [1, " +
                             std::to_string(kMaxTrackedLines) +
                             "], got '" + arg + "'");
        return ProfilingConfig::sampledAdaptive(*s_max);
    }
    throw UsageError("unknown profiling mode '" + arg +
                     "' (exact, sampled:R, sampled_adaptive:S)");
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
    if (args.find("--memory-budget") && !streaming.enabled)
        throw UsageError(
            "--memory-budget is only meaningful with --streaming yes");
    streaming.memoryBudgetBytes =
        args.bytes("--memory-budget", streaming.memoryBudgetBytes);
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
    spec.name = args.text("--workload");

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

    spec.threads = args.integer<unsigned>("--threads", 8, 1, kMaxCores);
    // Any positive finite scale: denorm_min is the least positive double.
    spec.scale = args.real("--scale", 1.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max());
    spec.seed = args.integer<uint64_t>("--seed", 12345);
    const std::vector<std::string> names = workloadNames();
    if (std::find(names.begin(), names.end(), spec.name) == names.end())
        throw UsageError("unknown workload '" + spec.name +
                         "' (workloads: " + joined(names) + ")");
    return spec;
}

/** The most --jobs workers ThreadPool takes; 0 is the hardware's. */
constexpr unsigned kMaxJobs = 1024;

BarrierPointOptions
analysisOptionsFromArgs(const Args &args)
{
    BarrierPointOptions options;
    options.signature.kind =
        parseSignatureKind(args.text("--signature", "combine"));
    // Counts start at 1: zero would panic the clustering stage.
    options.clustering.dim =
        args.integer<unsigned>("--dim", options.clustering.dim, 1);
    options.clustering.maxK =
        args.integer<unsigned>("--max-k", options.clustering.maxK, 1);
    options.significance =
        args.real("--significance", options.significance, 0.0, 1.0);
    return options;
}

int
cmdProfile(const Args &args)
{
    const WorkloadSpec spec = workloadSpecFromArgs(args);
    const unsigned jobs = args.integer<unsigned>("--jobs", 1, 0, kMaxJobs);
    const std::string out = args.text("-o");
    Experiment::Config config;
    config.options.profiling =
        parseProfilingConfig(args.text("--profiling", "exact"));

    Experiment experiment(spec, config, ExecutionContext(jobs));
    experiment.exportProfiles(out);
    unsigned long long instructions = 0;
    for (const auto &profile : experiment.profiles())
        instructions += profile.instructions();
    std::printf("profiled %s (%s): %zu regions, %llu instructions -> %s\n",
                spec.name.c_str(),
                config.options.profiling.describe().c_str(),
                experiment.profiles().size(), instructions, out.c_str());
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    const std::string in = args.text("--profile");
    const std::string out = args.text("-o");
    Experiment::Config config;
    config.options = analysisOptionsFromArgs(args);
    streamingFromArgs(args, config.streaming);
    const unsigned jobs = args.integer<unsigned>("--jobs", 1, 0, kMaxJobs);

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
    const std::string in = args.text("--analysis");
    const MachineConfig machine = machineByName(args.text("--machine"));
    const std::string out = args.text("-o");
    const WarmupPolicy policy =
        parseWarmupPolicy(args.text("--warmup", "mru"));
    const std::string snapshot_path = args.text("--snapshots");
    const unsigned jobs = args.integer<unsigned>("--jobs", 1, 0, kMaxJobs);
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
    const std::string in = args.text("--analysis");
    const MachineConfig machine = machineByName(args.text("--machine"));
    const std::string out = args.text("-o");

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
    const std::string analysis_path = args.text("--analysis");
    const std::string result_path = args.text("--result");
    const std::string reference_path = args.text("--reference");

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
        parseProfilingConfig(args.text("--profiling", "exact"));
    config.artifactDir = args.text("--artifacts");
    streamingFromArgs(args, config.streaming);
    const WarmupPolicy policy =
        parseWarmupPolicy(args.text("--warmup", "mru"));
    const unsigned jobs = args.integer<unsigned>("--jobs", 1, 0, kMaxJobs);
    const bool with_reference = args.flag("--reference");

    // The experiment must exist before the default machine list can be
    // derived: a trace workload's thread count lives in the file, not
    // in the command line (the canonical spec_ has it either way).
    Experiment experiment(spec, config, ExecutionContext(jobs));
    const std::string machines_arg = args.text(
        "--machines", std::to_string(experiment.spec().threads) + "-core");

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
    const std::string out = args.text("-o");

    const std::unique_ptr<Workload> workload = spec.instantiate();
    TraceWriter writer(out, workload->threadCount());
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
    const std::string path = args.text("--trace");
    const bool verify = args.flag("--verify");

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
    const std::string path = args.text("--artifact");
    std::printf("%016llx  %s\n",
                static_cast<unsigned long long>(artifactPayloadDigest(path)),
                path.c_str());
    return 0;
}

/** Every command, in usage order: the one list of names and options. */
const Command kCommands[] = {
    {"profile", "profile a workload's regions (one-time cost)", cmdProfile,
     {{"--workload", "NAME", true}, {"--threads", "N"}, {"--scale", "S"},
      {"--seed", "X"}, {"--profiling", "exact|sampled:R|sampled_adaptive:S"},
      {"--jobs", "J"}, {"-o", "FILE", true}}},
    {"analyze", "select barrierpoints from a profile artifact", cmdAnalyze,
     {{"--profile", "FILE", true}, {"--signature", "bbv|reuse_dist|combine"},
      {"--dim", "D"}, {"--max-k", "K"}, {"--significance", "F"},
      {"--jobs", "J"}, {"--streaming", "yes"}, {"--memory-budget", "SIZE"},
      {"-o", "FILE", true}}},
    {"simulate", "detailed-simulate only the barrierpoints", cmdSimulate,
     {{"--analysis", "FILE", true}, {"--machine", "NAME", true},
      {"--warmup", "mru|cold"}, {"--snapshots", "FILE"}, {"--jobs", "J"},
      {"-o", "FILE", true}}},
    {"reference", "detailed-simulate every region (the costly baseline)",
     cmdReference,
     {{"--analysis", "FILE", true}, {"--machine", "NAME", true},
      {"-o", "FILE", true}}},
    {"report", "reconstruct whole-program metrics from artifacts", cmdReport,
     {{"--analysis", "FILE", true}, {"--result", "FILE", true},
      {"--reference", "FILE"}}},
    {"sweep", "profile once, simulate many machines, in one session",
     cmdSweep,
     {{"--workload", "NAME", true}, {"--threads", "N"}, {"--scale", "S"},
      {"--seed", "X"}, {"--machines", "NAME,NAME,..."},
      {"--warmup", "mru|cold"}, {"--signature", "bbv|reuse_dist|combine"},
      {"--dim", "D"}, {"--max-k", "K"}, {"--significance", "F"},
      {"--jobs", "J"}, {"--profiling", "exact|sampled:R|sampled_adaptive:S"},
      {"--streaming", "yes"}, {"--memory-budget", "SIZE"},
      {"--artifacts", "DIR"}, {"--reference", "yes"}}},
    {"record", "record a workload's full trace to a .bptrace file",
     cmdRecord,
     {{"--workload", "NAME", true}, {"--threads", "N"}, {"--scale", "S"},
      {"--seed", "X"}, {"-o", "FILE", true}}},
    {"ingest", "validate a recorded trace and print its shape", cmdIngest,
     {{"--trace", "FILE", true}, {"--verify", "yes"}}},
    {"digest", "print a content digest of an artifact's payload", cmdDigest,
     {{"--artifact", "FILE", true}}},
    {"help", "print this message (also: bp --help)", nullptr, {}},
};

std::string
usageText()
{
    std::string text = "usage: bp <command> [options]\n\ncommands:\n";
    for (const Command &command : kCommands) {
        char head[96];
        std::snprintf(head, sizeof head, "  %-10s %s\n", command.name,
                      command.summary);
        text += head;
        // The options, wrapped at 78 columns under the summary.
        const std::string indent(14, ' ');
        std::string line = indent;
        for (const Option &option : command.options) {
            std::string word = std::string(option.key) + " " + option.value;
            if (!option.required)
                word = "[" + word + "]";
            if (line != indent && line.size() + 1 + word.size() > 78) {
                text += line + "\n";
                line = indent;
            }
            line += " " + word;
        }
        if (line != indent)
            text += line + "\n";
    }
    text += "\nworkloads: " + joined(workloadNames()) + ",\n"
            "           or trace:<path> to replay a .bptrace recording "
            "(see 'bp record')\n";
    text += "machines:  " + joined(MachineConfig::knownNames()) +
            ", or any \"<N>-core\" with N in [1, " +
            std::to_string(kMaxCores) + "]\n";
    return text;
}

int
bpMain(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs(usageText().c_str(), stderr);
        return 2;
    }
    const std::string name = argv[1];
    const Command *command = nullptr;
    std::vector<std::string> names;
    for (const Command &row : kCommands) {
        names.push_back(row.name);
        if (name == row.name)
            command = &row;
    }
    // `bp help`, `bp --help` and `bp <command> --help` print the usage.
    // Only option-key positions count — a --help where a *value*
    // belongs (e.g. `bp profile --workload --help`) stays a usage error.
    const auto is_help = [](const std::string &arg) {
        return arg == "--help" || arg == "-h";
    };
    bool help = (command && !command->run) || is_help(name);
    for (int i = 2; i < argc && argv[i][0] == '-' && !help; i += 2)
        help = is_help(argv[i]);
    if (help) {
        std::fputs(usageText().c_str(), stdout);
        return 0;
    }
    try {
        if (!command)
            throw UsageError("unknown command '" + name + "' (" +
                             joined(names) + ")");
        return command->run(Args(*command, argc - 2, argv + 2));
    } catch (const UsageError &error) {
        std::fprintf(stderr, "bp: %s\n(try 'bp --help')\n", error.what());
        return 2;
    } catch (const std::exception &error) {
        // An absurd size (say --scale 1e300) fails deep in the
        // pipeline: name the command line that asked for it.
        if (dynamic_cast<const std::bad_alloc *>(&error) ||
            dynamic_cast<const std::length_error *>(&error)) {
            std::string line = "bp";
            for (int i = 1; i < argc; ++i)
                line += std::string(" ") + argv[i];
            fatal("out of memory (%s) running '%s'", error.what(),
                  line.c_str());
        }
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
