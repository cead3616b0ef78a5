#include "src/core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/serialize.h"

namespace bp {

namespace {

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Workload names become file-name prefixes; keep them portable. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        if (!ok)
            c = '-';
    }
    return out;
}

/**
 * The analysis artifact key: the options hash, with the streaming
 * configuration folded in when streaming mode is on — a streaming
 * analysis is a different result than a batch one (mini-batch
 * centroids vs full Lloyd), so the two must never share a cache slot.
 */
uint64_t
analysisKeyHash(const Experiment::Config &config)
{
    const uint64_t options = optionsHash(config.options);
    if (!config.streaming.enabled)
        return options;
    return hashMix(options ^ streamingHash(config.streaming));
}

/**
 * Save @p artifact with @p member lent to its @p field for the
 * duration of the write — no copy of the (potentially large) stage
 * data, and the memoized member is restored on every path, including
 * a throwing save.
 */
template <typename Artifact, typename T>
void
saveLending(const std::string &path, Artifact &artifact, T &member,
            T Artifact::*field)
{
    artifact.*field = std::move(member);
    try {
        saveArtifact(path, artifact);
    } catch (...) {
        member = std::move(artifact.*field);
        throw;
    }
    member = std::move(artifact.*field);
}

/**
 * The artifact-cache probe every stage shares: load @p path with
 * @p loader and return the artifact when @p mismatch finds it current
 * (returns ""). A missing file is a quiet miss; an unreadable one, or
 * one @p mismatch rejects with a reason, warns and misses, so the
 * caller recomputes and republishes the @p stage.
 */
template <typename Artifact, typename Mismatch>
std::optional<Artifact>
loadCurrent(const std::string &path, Artifact (*loader)(const std::string &),
            const char *stage, Mismatch mismatch)
{
    if (path.empty() || !fileExists(path))
        return std::nullopt;
    try {
        Artifact artifact = loader(path);
        const std::string reason = mismatch(artifact);
        if (reason.empty())
            return artifact;
        warn("%s artifact %s %s", stage, path.c_str(), reason.c_str());
    } catch (const SerializeError &error) {
        warn("%s artifact %s is unreadable (%s); recomputing", stage,
             path.c_str(), error.what());
    }
    return std::nullopt;
}

} // namespace

Experiment::Experiment(WorkloadSpec spec, Config config,
                       ExecutionContext exec)
    : Experiment(spec.instantiate(), std::move(config), std::move(exec))
{}

Experiment::Experiment(std::unique_ptr<Workload> workload, Config config,
                       ExecutionContext exec)
    : Experiment(*workload, std::move(config), std::move(exec))
{
    owned_ = std::move(workload);
}

Experiment::Experiment(const Workload &workload, Config config,
                       ExecutionContext exec)
    : workload_(&workload),
      // Describe the instance rather than keep a caller's spec:
      // describe() is canonical (trace workloads pin scale/seed and
      // take threads from the file; contentHash is filled in), so
      // artifact names and embedded specs never depend on how the
      // caller spelled the parameters.
      spec_(WorkloadSpec::describe(workload)), config_(std::move(config)),
      exec_(std::move(exec)), optionsHash_(analysisKeyHash(config_)),
      profilingHash_(bp::profilingHash(config_.options.profiling)),
      stem_(sanitizeName(spec_.name) + "-" + hex16(spec_.hash()))
{}

Experiment::SnapshotKey
Experiment::snapshotKey(const MachineConfig &machine)
{
    return {mruCapacityLines(machine), mruPrivateLines(machine)};
}

std::string
Experiment::machineKey(const MachineConfig &machine)
{
    return sanitizeName(machine.name) + "-" + hex16(configHash(machine));
}

void
Experiment::requireMachineFits(const MachineConfig &machine) const
{
    const unsigned threads = workload_->threadCount();
    if (machine.numCores < threads)
        fatal("machine %s has %u cores but workload %s runs %u threads; "
              "pick a machine with >= %u cores or re-instantiate the "
              "workload at a narrower width",
              machine.name.c_str(), machine.numCores, spec_.name.c_str(),
              threads, threads);
}

std::string
Experiment::artifactPath(const std::string &leaf) const
{
    if (config_.artifactDir.empty())
        return {};
    return (std::filesystem::path(config_.artifactDir) / leaf).string();
}

std::string
Experiment::profilePath() const
{
    return artifactPath(stem_ + "-p" + hex16(profilingHash_) +
                        ".profile.bp");
}

std::string
Experiment::analysisPath() const
{
    return artifactPath(stem_ + "-o" + hex16(optionsHash_) +
                        ".analysis.bp");
}

std::string
Experiment::snapshotPath(const SnapshotKey &key) const
{
    return artifactPath(stem_ + "-o" + hex16(optionsHash_) + "-c" +
                        std::to_string(key.lines) + "x" +
                        std::to_string(key.privateLines) + ".snapshots.bp");
}

std::string
Experiment::resultPath(const MachineConfig &machine,
                       WarmupPolicy policy) const
{
    return artifactPath(stem_ + "-o" + hex16(optionsHash_) + "-m" +
                        machineKey(machine) + "-" +
                        warmupPolicyName(policy) + ".result.bp");
}

std::string
Experiment::referencePath(const MachineConfig &machine) const
{
    return artifactPath(stem_ + "-m" + machineKey(machine) +
                        ".reference.bp");
}

void
Experiment::ensureArtifactDir()
{
    if (artifactDirReady_ || config_.artifactDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(config_.artifactDir, ec);
    if (ec)
        fatal("cannot create artifact directory '%s': %s",
              config_.artifactDir.c_str(), ec.message().c_str());
    artifactDirReady_ = true;
}

// ------------------------------------------------------------- profiles

bool
Experiment::tryLoadProfiles(const std::string &path)
{
    std::optional<ProfileArtifact> artifact = loadCurrent(
        path, loadProfileArtifact, "profile",
        [&](const ProfileArtifact &a) -> std::string {
            if (a.workload != spec_)
                return "was produced for a different workload spec; "
                       "recomputing";
            if (a.profiling != config_.options.profiling)
                return "was collected under profiling mode " +
                       a.profiling.describe() +
                       " but this experiment wants " +
                       config_.options.profiling.describe() +
                       "; recomputing";
            if (a.profiles.size() != workload_->regionCount())
                return "holds " + std::to_string(a.profiles.size()) +
                       " regions but the workload has " +
                       std::to_string(workload_->regionCount()) +
                       "; recomputing";
            return "";
        });
    if (!artifact)
        return false;
    profiles_ = std::move(artifact->profiles);
    return true;
}

const std::vector<RegionProfile> &
Experiment::profiles()
{
    if (profiles_)
        return *profiles_;
    const std::string path = profilePath();
    if (tryLoadProfiles(path))
        return *profiles_;

    profiles_ =
        profileWorkload(*workload_, config_.options.profiling, exec_);
    if (!path.empty()) {
        ensureArtifactDir();
        exportProfiles(path);
    }
    return *profiles_;
}

void
Experiment::seedProfiles(std::vector<RegionProfile> profiles)
{
    if (profiles.size() != workload_->regionCount())
        fatal("seeded profiles describe %zu regions but workload %s has "
              "%u",
              profiles.size(), spec_.name.c_str(),
              workload_->regionCount());
    profiles_ = std::move(profiles);
    // Everything downstream was derived from the previous profiles.
    analysis_.reset();
    snapshots_.clear();
    results_.clear();
    seeded_ = true;
}

// ------------------------------------------------------------- analysis

bool
Experiment::tryLoadAnalysis(const std::string &path)
{
    std::optional<AnalysisArtifact> artifact = loadCurrent(
        path, loadAnalysisArtifact, "analysis",
        [&](const AnalysisArtifact &a) -> std::string {
            if (a.workload != spec_)
                return "was produced for a different workload spec; "
                       "recomputing";
            if (a.optionsHash != optionsHash_)
                return "was produced with different analysis options; "
                       "recomputing";
            return "";
        });
    if (!artifact)
        return false;
    analysis_ = std::move(artifact->analysis);
    return true;
}

StreamingConfig
Experiment::effectiveStreaming()
{
    StreamingConfig streaming = config_.streaming;
    if (streaming.spillDir.empty() && !config_.artifactDir.empty()) {
        ensureArtifactDir();
        streaming.spillDir = config_.artifactDir;
    }
    return streaming;
}

const BarrierPointAnalysis &
Experiment::analysis()
{
    if (analysis_)
        return *analysis_;
    const std::string path = analysisPath();
    if (!seeded_ && tryLoadAnalysis(path))
        return *analysis_;

    if (config_.streaming.enabled) {
        // The streaming pass never materializes profiles (and writes
        // no profile artifact) unless a profile stage already exists —
        // then it streams over the in-memory profiles instead, which
        // feeds the analyzer the identical consume() sequence.
        if (profiles_) {
            analysis_ = analyzeProfilesStreaming(
                *profiles_, config_.options, effectiveStreaming(), exec_);
        } else {
            analysis_ = analyzeWorkloadStreaming(
                *workload_, config_.options, effectiveStreaming(), exec_);
        }
    } else {
        analysis_ = analyzeProfiles(profiles(), config_.options, exec_);
    }
    if (!seeded_ && !path.empty()) {
        ensureArtifactDir();
        exportAnalysis(path);
    }
    return *analysis_;
}

void
Experiment::seedAnalysis(BarrierPointAnalysis analysis)
{
    if (analysis.numRegions() != workload_->regionCount())
        fatal("seeded analysis describes %u regions but workload %s has "
              "%u",
              analysis.numRegions(), spec_.name.c_str(),
              workload_->regionCount());
    analysis_ = std::move(analysis);
    // Snapshots and results were derived from the previous analysis.
    snapshots_.clear();
    results_.clear();
    seeded_ = true;
}

// ------------------------------------------------------------ snapshots

bool
Experiment::tryLoadSnapshots(const std::string &path,
                             const SnapshotKey &key)
{
    std::optional<SnapshotArtifact> artifact = loadCurrent(
        path, loadSnapshotArtifact, "snapshot",
        [&](const SnapshotArtifact &a) -> std::string {
            const std::vector<uint32_t> regions = analysis().pointRegions();
            if (a.workload != spec_ || a.capacityLines != key.lines ||
                a.privateLines != key.privateLines || a.regions != regions ||
                a.snapshots.size() != regions.size())
                return "was captured for a different analysis or "
                       "machine; recapturing";
            return "";
        });
    if (!artifact)
        return false;
    snapshots_[key] = std::move(artifact->snapshots);
    return true;
}

void
Experiment::resolveSnapshots(const std::vector<SnapshotKey> &keys)
{
    std::vector<SnapshotKey> missing;
    for (const SnapshotKey &key : keys) {
        if (snapshots_.count(key) ||
            std::find(missing.begin(), missing.end(), key) != missing.end())
            continue;
        if (!seeded_ && tryLoadSnapshots(snapshotPath(key), key))
            continue;
        missing.push_back(key);
    }
    if (missing.empty())
        return;

    std::vector<MruSnapshotSet> captured = captureMruSnapshots(
        *workload_, analysis().pointRegions(), missing, exec_);
    for (size_t i = 0; i < missing.size(); ++i) {
        snapshots_[missing[i]] = std::move(captured[i]);
        const std::string path = snapshotPath(missing[i]);
        if (!seeded_ && !path.empty()) {
            ensureArtifactDir();
            saveSnapshots(missing[i], path);
        }
    }
}

const MruSnapshotSet &
Experiment::snapshots(const MachineConfig &machine)
{
    const SnapshotKey key = snapshotKey(machine);
    resolveSnapshots({key});
    return snapshots_.at(key);
}

bool
Experiment::trySeedSnapshots(const MachineConfig &machine,
                             const std::string &path)
{
    if (!tryLoadSnapshots(path, snapshotKey(machine)))
        return false;
    // Adopted external data: same contract as the other seeds — drop
    // results derived from any previous snapshots and stop exchanging
    // derivatives with the artifact cache.
    results_.clear();
    seeded_ = true;
    return true;
}

// -------------------------------------------------------------- exports

void
Experiment::exportProfiles(const std::string &path)
{
    profiles();
    ProfileArtifact artifact;
    artifact.workload = spec_;
    artifact.profiling = config_.options.profiling;
    saveLending(path, artifact, *profiles_, &ProfileArtifact::profiles);
}

void
Experiment::exportAnalysis(const std::string &path)
{
    analysis();
    AnalysisArtifact artifact;
    artifact.workload = spec_;
    artifact.optionsHash = optionsHash_;
    saveLending(path, artifact, *analysis_, &AnalysisArtifact::analysis);
}

void
Experiment::exportSnapshots(const MachineConfig &machine,
                            const std::string &path)
{
    snapshots(machine);
    saveSnapshots(snapshotKey(machine), path);
}

void
Experiment::saveSnapshots(const SnapshotKey &key, const std::string &path)
{
    SnapshotArtifact artifact;
    artifact.workload = spec_;
    artifact.capacityLines = key.lines;
    artifact.privateLines = key.privateLines;
    artifact.regions = analysis().pointRegions();
    saveLending(path, artifact, snapshots_.at(key),
                &SnapshotArtifact::snapshots);
}

// ----------------------------------------------------------- simulation

bool
Experiment::tryLoadResult(const std::string &path, const ResultKey &key,
                          const MachineConfig &machine, WarmupPolicy policy)
{
    const std::string flavor =
        std::string("barrierpoints-") + warmupPolicyName(policy);
    std::optional<RunResultArtifact> artifact = loadCurrent(
        path, loadRunResultArtifact, "result",
        [&](const RunResultArtifact &a) -> std::string {
            if (a.workload != spec_ || a.optionsHash != optionsHash_ ||
                a.machine != machine.name || a.flavor != flavor ||
                a.result.regions.size() != analysis().points.size())
                return "was produced by a different experiment; "
                       "re-simulating";
            return "";
        });
    if (!artifact)
        return false;
    SimulationResult result;
    result.machine = machine.name;
    result.policy = policy;
    result.stats = std::move(artifact->result.regions);
    result.estimate = reconstruct(analysis(), result.stats);
    results_[key] = std::move(result);
    return true;
}

void
Experiment::simulateMachines(std::span<const MachineConfig> machines,
                             WarmupPolicy policy)
{
    struct Pending
    {
        const MachineConfig *machine;
        ResultKey key;
        const MruSnapshotSet *snapshots = nullptr;
    };
    std::vector<Pending> pending;
    for (const MachineConfig &machine : machines) {
        requireMachineFits(machine);
        const ResultKey key{machineKey(machine),
                            static_cast<int>(policy)};
        if (results_.count(key))
            continue;
        bool queued = false;
        for (const Pending &p : pending)
            queued = queued || p.key == key;
        if (queued)
            continue;
        if (!seeded_ && tryLoadResult(resultPath(machine, policy), key,
                                      machine, policy))
            continue;
        pending.push_back({&machine, key, nullptr});
    }

    if (!pending.empty()) {
        const BarrierPointAnalysis &a = analysis();
        // Warmup capture comes first, in one pass for every capacity
        // the machines lack (machines of equal capacities share a
        // set), so the fan-out below only reads.
        if (policy == WarmupPolicy::MruReplay) {
            std::vector<SnapshotKey> keys;
            for (const Pending &p : pending)
                keys.push_back(snapshotKey(*p.machine));
            resolveSnapshots(keys);
            for (Pending &p : pending)
                p.snapshots = &snapshots_.at(snapshotKey(*p.machine));
        }

        // One flat (machine x barrierpoint) fan-out on the shared
        // pool: every job runs the same simulateBarrierPoint() kernel
        // as simulateBarrierPoints() and writes only its own slot, so
        // results are bit-identical to the free functions while short
        // per-machine tails overlap.
        const size_t npoints = a.points.size();
        std::vector<RegionStats> flat(pending.size() * npoints);
        exec_.pool().parallelFor(
            0, flat.size(), [&](uint64_t idx) {
                const size_t mi = static_cast<size_t>(idx / npoints);
                const size_t j = static_cast<size_t>(idx % npoints);
                const Pending &p = pending[mi];
                flat[idx] = simulateBarrierPoint(*workload_, *p.machine,
                                                 a, j, p.snapshots);
            });

        for (size_t mi = 0; mi < pending.size(); ++mi) {
            const MachineConfig &machine = *pending[mi].machine;
            SimulationResult result;
            result.machine = machine.name;
            result.policy = policy;
            result.stats.assign(
                std::make_move_iterator(flat.begin() + mi * npoints),
                std::make_move_iterator(flat.begin() + (mi + 1) * npoints));
            result.estimate = reconstruct(a, result.stats);

            const std::string path = resultPath(machine, policy);
            if (!seeded_ && !path.empty()) {
                ensureArtifactDir();
                RunResultArtifact artifact;
                artifact.workload = spec_;
                artifact.machine = machine.name;
                artifact.flavor = std::string("barrierpoints-") +
                                  warmupPolicyName(policy);
                artifact.optionsHash = optionsHash_;
                artifact.result.regions = result.stats;
                saveArtifact(path, artifact);
            }
            results_[pending[mi].key] = std::move(result);
        }
    }
}

const SimulationResult &
Experiment::simulate(const MachineConfig &machine, WarmupPolicy policy)
{
    simulateMachines({&machine, 1}, policy);
    return results_.at({machineKey(machine), static_cast<int>(policy)});
}

const Estimate &
Experiment::estimate(const MachineConfig &machine, WarmupPolicy policy)
{
    return simulate(machine, policy).estimate;
}

std::vector<SimulationResult>
Experiment::sweep(const std::vector<MachineConfig> &machines,
                  WarmupPolicy policy)
{
    simulateMachines(machines, policy);
    std::vector<SimulationResult> out;
    out.reserve(machines.size());
    for (const MachineConfig &machine : machines)
        out.push_back(results_.at(
            {machineKey(machine), static_cast<int>(policy)}));
    return out;
}

// ------------------------------------------------------------ reference

bool
Experiment::tryLoadReference(const std::string &path,
                             const std::string &machine_key,
                             const MachineConfig &machine)
{
    std::optional<RunResultArtifact> artifact = loadCurrent(
        path, loadRunResultArtifact, "reference",
        [&](const RunResultArtifact &a) -> std::string {
            if (a.workload != spec_ || a.machine != machine.name ||
                a.flavor != "reference" ||
                a.result.regions.size() != workload_->regionCount())
                return "was produced by a different experiment; "
                       "re-simulating";
            return "";
        });
    if (!artifact)
        return false;
    references_[machine_key] = std::move(artifact->result);
    return true;
}

const RunResult &
Experiment::reference(const MachineConfig &machine)
{
    requireMachineFits(machine);
    const std::string machine_key = machineKey(machine);
    auto it = references_.find(machine_key);
    if (it != references_.end())
        return it->second;
    const std::string path = referencePath(machine);
    if (tryLoadReference(path, machine_key, machine))
        return references_.at(machine_key);

    RunResult result = runReference(*workload_, machine, exec_);
    if (!path.empty()) {
        ensureArtifactDir();
        RunResultArtifact artifact;
        artifact.workload = spec_;
        artifact.machine = machine.name;
        artifact.flavor = "reference";
        artifact.result = result;
        saveArtifact(path, artifact);
    }
    return references_[machine_key] = std::move(result);
}

} // namespace bp
