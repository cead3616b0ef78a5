/**
 * @file
 * The traced run: per-layer metrics from spans.
 *
 * It drives the pipeline.h free functions in the order bp::Experiment
 * uses them (experiment.h documents the two as bit-identical), with a
 * span around every call into a layer, and saves every stage as the
 * Experiment would when the app persists. Then, outside the timed
 * Estimate and reference paths, it measures what one call cannot
 * show: profiling and barrierpoint simulation again at one worker
 * (for *.par_eff, and split into warmup and detail), the analysis
 * split into projection, clustering and selection, a lone
 * reuse-distance pass, artifact loads and trace verification.
 *
 * Before anything is reported, the traced results are compared with
 * an untraced bp::Experiment pass of the same set-up: Estimates and
 * references must match bit for bit, and so must the one-worker
 * repeats and the split analysis.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <system_error>

#include "bench.h"
#include "spans.h"
#include "src/support/serialize.h"
#include "src/trace_io/trace_workload.h"

namespace bpbench {

namespace {

/** Forwards to a workload, spanning every generateRegion() call. */
class TracedWorkload final : public bp::Workload
{
  public:
    TracedWorkload(const bp::Workload &inner, SpanRecorder &spans,
                   int item, const char *span_name)
        : Workload(inner.name(), inner.params()), inner_(inner),
          spans_(spans), item_(item), spanName_(span_name)
    {}

    unsigned regionCount() const override { return inner_.regionCount(); }
    uint64_t contentHash() const override { return inner_.contentHash(); }

    bp::RegionTrace
    generateRegion(unsigned index) const override
    {
        ScopedSpan span(&spans_, spanName_, item_);
        bp::RegionTrace trace = inner_.generateRegion(index);
        span.addWork(trace.totalOps());
        return trace;
    }

  private:
    const bp::Workload &inner_;
    SpanRecorder &spans_;
    int item_;
    const char *spanName_;
};

template <typename T>
uint64_t
digestOf(const std::vector<T> &values)
{
    bp::Serializer s;
    for (const T &v : values)
        v.serialize(s);
    return digestBytes(s.buffer());
}

uint64_t
digestOf(const bp::BarrierPointAnalysis &analysis)
{
    bp::Serializer s;
    analysis.serialize(s);
    return digestBytes(s.buffer());
}

uint64_t
snapshotLines(const bp::MruSnapshotSet &snapshots)
{
    uint64_t lines = 0;
    for (const auto &per_core : snapshots)
        for (const auto &entries : per_core)
            lines += entries.size();
    return lines;
}

/** Accumulated over every item of the traced pass. */
struct Totals
{
    double bpSeconds = 0.0;
    uint64_t refInstructions = 0;
    /** MemStats of the reference runs. */
    uint64_t accesses = 0;
    uint64_t l1Hits = 0;
    uint64_t llcMisses = 0;
    uint64_t dramAccesses = 0;
    std::vector<ItemOutcome> items;
    std::vector<std::string> problems;
};

/** A saved artifact, for the load measurement. */
struct Saved
{
    bp::ArtifactKind kind;
    std::filesystem::path path;
};

class TracedApp
{
  public:
    TracedApp(App &app, const bp::ExecutionContext &exec,
              SpanRecorder &spans, const std::filesystem::path &dir,
              Totals &totals)
        : app_(app), exec_(exec), spans_(spans), dir_(dir),
          totals_(totals), item_(spans.addItem(app.label)),
          reader_(traceReader(*app.workload)),
          workload_(*app.workload, spans, item_,
                    reader_ ? "trace_io.readRegion"
                            : "workloads.generateRegion"),
          spec_(bp::WorkloadSpec::describe(*app.workload))
    {}

    void
    run()
    {
        if (app_.persist)
            std::filesystem::create_directories(dir_);
        const double t0 = now();
        estimate();
        totals_.bpSeconds += now() - t0;
        reference();
        for (size_t i = 0; i < app_.machines.size(); ++i)
            totals_.items.push_back(summarizeItem(
                app_.label + "@" + app_.machines[i].name, analysis_,
                stats_[i], estimates_[i], references_[i],
                app_.recordedOps));
        extras();
        // As the untraced pass does after each app: artifacts left on
        // disk would be written back while later stages are timed.
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
    }

  private:
    static const bp::TraceReader *
    traceReader(const bp::Workload &workload)
    {
        const auto *trace = dynamic_cast<const bp::TraceWorkload *>(&workload);
        return trace ? &trace->reader() : nullptr;
    }

    using SnapshotKey = std::pair<uint64_t, uint64_t>;

    static SnapshotKey
    snapshotKey(const bp::MachineConfig &machine)
    {
        return {bp::mruCapacityLines(machine), bp::mruPrivateLines(machine)};
    }

    template <typename Artifact>
    void
    save(const std::string &leaf, const Artifact &artifact,
         bp::ArtifactKind kind)
    {
        const std::filesystem::path path = dir_ / leaf;
        ScopedSpan span(&spans_, "core.saveArtifact", item_);
        bp::saveArtifact(path.string(), artifact);
        span.addWork(std::filesystem::file_size(path));
        saved_.push_back({kind, path});
    }

    /** The Estimate path: profile -> analyze -> snapshots -> points. */
    void
    estimate()
    {
        ScopedSpan top(&spans_, "bench.estimate", item_);
        {
            ScopedSpan span(&spans_, "profile.profileWorkload", item_);
            profiles_ = bp::profileWorkload(workload_, options_.profiling,
                                            exec_);
            for (const bp::RegionProfile &p : profiles_)
                span.addWork(p.memOps());
        }
        if (app_.persist) {
            bp::ProfileArtifact artifact;
            artifact.workload = spec_;
            artifact.profiling = options_.profiling;
            artifact.profiles = std::move(profiles_);
            save("profiles.bp", artifact, bp::ArtifactKind::Profile);
            profiles_ = std::move(artifact.profiles);
        }
        {
            ScopedSpan span(&spans_, "core.analyzeProfiles", item_);
            analysis_ = bp::analyzeProfiles(profiles_, options_, exec_);
        }
        if (app_.persist) {
            bp::AnalysisArtifact artifact;
            artifact.workload = spec_;
            artifact.optionsHash = bp::optionsHash(options_);
            artifact.analysis = analysis_;
            save("analysis.bp", artifact, bp::ArtifactKind::Analysis);
        }
        for (const bp::MachineConfig &machine : app_.machines) {
            const SnapshotKey key = snapshotKey(machine);
            if (snapshots_.count(key))
                continue;
            bp::MruSnapshotSet &snapshots = snapshots_[key];
            {
                ScopedSpan span(&spans_, "core.captureAnalysisSnapshots",
                                item_);
                snapshots = bp::captureAnalysisSnapshots(workload_, machine,
                                                         analysis_);
                span.addWork(snapshotLines(snapshots));
            }
            if (app_.persist) {
                bp::SnapshotArtifact artifact;
                artifact.workload = spec_;
                artifact.capacityLines = key.first;
                artifact.privateLines = key.second;
                artifact.regions = analysis_.pointRegions();
                artifact.snapshots = std::move(snapshots);
                save("snapshots-" + std::to_string(key.first) + ".bp",
                     artifact, bp::ArtifactKind::Snapshots);
                snapshots = std::move(artifact.snapshots);
            }
        }
        {
            ScopedSpan span(&spans_, "sim.simulateBarrierPoints", item_);
            stats_ = simulatePoints();
            for (const std::vector<bp::RegionStats> &stats : stats_)
                for (const bp::RegionStats &s : stats)
                    span.addWork(s.instructions);
        }
        for (size_t m = 0; m < app_.machines.size(); ++m) {
            {
                ScopedSpan span(&spans_, "core.reconstruct", item_);
                estimates_.push_back(bp::reconstruct(analysis_, stats_[m]));
            }
            if (app_.persist) {
                bp::RunResultArtifact artifact;
                artifact.workload = spec_;
                artifact.machine = app_.machines[m].name;
                artifact.flavor = "barrierpoints-mru";
                artifact.optionsHash = bp::optionsHash(options_);
                artifact.result.regions = stats_[m];
                save("result-" + app_.machines[m].name + ".bp", artifact,
                     bp::ArtifactKind::RunResult);
            }
        }
    }

    /**
     * The barrierpoint stats per machine, scheduled as the Experiment
     * schedules them: simulate() on one machine runs
     * simulateBarrierPoints(); sweep() runs one flat (machine x
     * barrierpoint) fan-out, so the per-machine tails overlap.
     */
    std::vector<std::vector<bp::RegionStats>>
    simulatePoints()
    {
        if (app_.machines.size() == 1) {
            const bp::MachineConfig &machine = app_.machines.front();
            return {bp::simulateBarrierPoints(
                workload_, machine, analysis_,
                snapshots_.at(snapshotKey(machine)), exec_)};
        }
        std::vector<const bp::MruSnapshotSet *> warmup;
        for (const bp::MachineConfig &machine : app_.machines)
            warmup.push_back(&snapshots_.at(snapshotKey(machine)));
        const size_t npoints = analysis_.points.size();
        std::vector<bp::RegionStats> flat(app_.machines.size() * npoints);
        exec_.pool().parallelFor(0, flat.size(), [&](uint64_t idx) {
            const size_t m = idx / npoints;
            flat[idx] = bp::simulateBarrierPoint(
                workload_, app_.machines[m], analysis_, idx % npoints,
                warmup[m]);
        });
        std::vector<std::vector<bp::RegionStats>> stats;
        for (size_t m = 0; m < app_.machines.size(); ++m)
            stats.emplace_back(flat.begin() + m * npoints,
                               flat.begin() + (m + 1) * npoints);
        return stats;
    }

    void
    reference()
    {
        ScopedSpan top(&spans_, "bench.reference", item_);
        for (const bp::MachineConfig &machine : app_.machines) {
            {
                ScopedSpan span(&spans_, "sim.runReference", item_);
                references_.push_back(bp::runReference(workload_, machine));
                span.addWork(references_.back().totalInstructions());
            }
            for (const bp::RegionStats &region : references_.back().regions) {
                totals_.accesses += region.mem.accesses;
                totals_.l1Hits += region.mem.l1Hits;
                totals_.llcMisses += region.mem.llcMisses;
                totals_.dramAccesses += region.mem.dramAccesses();
            }
            totals_.refInstructions += references_.back().totalInstructions();
            if (app_.persist) {
                bp::RunResultArtifact artifact;
                artifact.workload = spec_;
                artifact.machine = machine.name;
                artifact.flavor = "reference";
                artifact.result = references_.back();
                save("reference-" + machine.name + ".bp", artifact,
                     bp::ArtifactKind::RunResult);
            }
        }
    }

    void
    problem(const std::string &what)
    {
        totals_.problems.push_back(app_.label + ": " + what);
    }

    /** Measurements outside the Estimate and reference paths. */
    void
    extras()
    {
        ScopedSpan top(&spans_, "bench.extras", item_);
        std::vector<bp::RegionProfile> serial_profiles;
        {
            ScopedSpan span(&spans_, "profile.profileWorkload_1w", item_);
            serial_profiles = bp::profileWorkload(
                workload_, options_.profiling, bp::ExecutionContext(1));
        }
        if (digestOf(serial_profiles) != digestOf(profiles_))
            problem("profiles differ at 1 worker");
        reuseDistances();
        splitAnalysis();
        serialBarrierPoints();
        loadArtifacts();
        if (reader_) {
            ScopedSpan span(&spans_, "trace_io.verifyRegions", item_);
            for (uint64_t r = 0; r < reader_->regionCount(); ++r)
                reader_->verifyRegion(r);
            span.addWork(reader_->opCount());
        }
    }

    /** The same access streams through lone reuse-distance collectors. */
    void
    reuseDistances()
    {
        ScopedSpan span(&spans_, "profile.reuseDistance", item_);
        std::vector<bp::ReuseDistanceCollector> collectors(
            workload_.threadCount());
        uint64_t accesses = 0;
        for (unsigned r = 0; r < workload_.regionCount(); ++r) {
            const bp::RegionTrace trace = workload_.generateRegion(r);
            for (unsigned t = 0; t < trace.threadCount(); ++t) {
                for (const bp::MicroOp &op : trace.thread(t)) {
                    if (!op.isMem())
                        continue;
                    collectors[t].access(bp::lineOf(op.addr));
                    ++accesses;
                }
            }
        }
        span.addWork(accesses);
    }

    /** analyzeProfiles() in its three public steps. */
    void
    splitAnalysis()
    {
        std::vector<std::vector<double>> points;
        {
            ScopedSpan span(&spans_, "core.projectProfiles", item_);
            points = bp::projectProfiles(profiles_, options_.signature,
                                         options_.clustering, exec_);
        }
        std::vector<uint64_t> instructions;
        std::vector<double> weights;
        for (const bp::RegionProfile &p : profiles_) {
            instructions.push_back(p.instructions());
            weights.push_back(static_cast<double>(p.instructions()));
        }
        std::optional<bp::ClusteringResult> clustering;
        {
            ScopedSpan span(&spans_, "core.clusterSignatures", item_);
            clustering = bp::clusterSignatures(points, weights,
                                               options_.clustering,
                                               &exec_.pool());
            span.addWork(points.size());
        }
        std::optional<bp::BarrierPointAnalysis> split;
        {
            ScopedSpan span(&spans_, "core.selectBarrierPoints", item_);
            split = bp::selectBarrierPoints(*clustering, points, instructions,
                                            options_.significance);
        }
        if (digestOf(*split) != digestOf(analysis_))
            problem("the split analysis differs from analyzeProfiles()");
    }

    /**
     * simulateBarrierPoint()'s steps, one point after another on this
     * thread (one worker): a fresh machine warmed by MRU replay and
     * predictor training, then the detailed region simulation.
     */
    void
    serialBarrierPoints()
    {
        ScopedSpan top(&spans_, "sim.simulateBarrierPoints_1w", item_);
        for (size_t m = 0; m < app_.machines.size(); ++m) {
            const bp::MachineConfig &machine = app_.machines[m];
            const bp::MruSnapshotSet &snapshots =
                snapshots_.at(snapshotKey(machine));
            std::vector<bp::RegionStats> stats;
            for (size_t j = 0; j < analysis_.points.size(); ++j) {
                const bp::RegionTrace trace =
                    workload_.generateRegion(analysis_.points[j].region);
                std::optional<bp::MultiCoreSim> sim;
                {
                    ScopedSpan span(&spans_, "sim.warmup", item_);
                    sim.emplace(machine);
                    sim->warmupReplay(snapshots[j]);
                    sim->trainPredictors(trace);
                }
                ScopedSpan span(&spans_, "sim.detail", item_);
                stats.push_back(sim->simulateRegion(trace));
                span.addWork(stats.back().instructions);
            }
            if (digestOf(stats) != digestOf(stats_[m]))
                problem("barrierpoint stats differ at 1 worker on " +
                        machine.name);
        }
    }

    void
    loadArtifacts()
    {
        for (const Saved &saved : saved_) {
            ScopedSpan span(&spans_, "core.loadArtifact", item_);
            const std::string path = saved.path.string();
            switch (saved.kind) {
              case bp::ArtifactKind::Profile:
                if (bp::loadProfileArtifact(path).profiles.size() !=
                    profiles_.size())
                    problem("profile artifact did not round-trip");
                break;
              case bp::ArtifactKind::Analysis:
                if (digestOf(bp::loadAnalysisArtifact(path).analysis) !=
                    digestOf(analysis_))
                    problem("analysis artifact did not round-trip");
                break;
              case bp::ArtifactKind::Snapshots:
                if (bp::loadSnapshotArtifact(path).snapshots.size() !=
                    analysis_.points.size())
                    problem("snapshot artifact did not round-trip");
                break;
              case bp::ArtifactKind::RunResult:
                bp::loadRunResultArtifact(path);
                break;
            }
            span.addWork(std::filesystem::file_size(saved.path));
        }
    }

    App &app_;
    const bp::ExecutionContext &exec_;
    SpanRecorder &spans_;
    std::filesystem::path dir_;
    Totals &totals_;
    const int item_;
    const bp::TraceReader *reader_;
    TracedWorkload workload_;
    const bp::WorkloadSpec spec_;
    const bp::BarrierPointOptions options_;

    std::vector<bp::RegionProfile> profiles_;
    bp::BarrierPointAnalysis analysis_;
    std::map<SnapshotKey, bp::MruSnapshotSet> snapshots_;
    std::vector<std::vector<bp::RegionStats>> stats_;  ///< per machine
    std::vector<bp::Estimate> estimates_;
    std::vector<bp::RunResult> references_;
    std::vector<Saved> saved_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

TracedResult
runTraced(const Options &options)
{
    SpanRecorder spans;
    std::unique_ptr<Setup> setup;
    {
        ScopedSpan span(&spans, "bench.setup");
        setup = makeSetup(options.kind, options.seed, options.workers,
                          options.tmp, &spans);
    }

    // Untraced bp::Experiment passes, as the untraced run measures
    // them, before and after the traced pass: the reference for the
    // bit-identity check and for the tracing overhead.
    std::vector<PassResult> untraced(2);
    {
        ScopedSpan span(&spans, "bench.untracedPass");
        untraced[0] = runPass(*setup, 0);
    }
    Totals totals;
    for (App &app : setup->apps) {
        TracedApp traced(app, *setup->exec, spans,
                         setup->dir / ("traced-" + app.label), totals);
        traced.run();
    }
    {
        ScopedSpan span(&spans, "bench.untracedPass");
        untraced[1] = runPass(*setup, 1);
    }
    // The first untraced pass is the first after set-up and runs cold;
    // the overhead compares the traced pass with the warm one after it.
    const double untraced_bp = total(untraced[1].bpSeconds);

    TracedResult result;
    result.items = untraced[0].items;
    result.problems = totals.problems;
    if (totals.items.size() != result.items.size())
        result.problems.push_back("traced and untraced item counts differ");
    for (size_t i = 0;
         i < std::min(totals.items.size(), result.items.size()); ++i) {
        const ItemOutcome &a = totals.items[i];
        const ItemOutcome &b = result.items[i];
        if (a.estDigest != b.estDigest || a.refDigest != b.refDigest)
            result.problems.push_back(a.name +
                                      ": traced results differ from "
                                      "bp::Experiment's");
        for (const std::string &failure : a.failures)
            result.problems.push_back(a.name + " (traced): " + failure);
    }
    for (size_t i = 0; i < untraced[1].items.size(); ++i) {
        const ItemOutcome &a = untraced[1].items[i];
        const ItemOutcome &b = untraced[0].items.at(i);
        if (a.estDigest != b.estDigest || a.refDigest != b.refDigest ||
            !a.ok())
            result.problems.push_back(a.name +
                                      ": the two untraced passes differ");
    }

    const SpanIndex idx(spans.spans());
    const double workers = static_cast<double>(options.workers);
    const double ref_kinstr =
        static_cast<double>(totals.refInstructions) / 1000.0;
    uint64_t trace_bytes = 0;
    if (!setup->tracePath.empty())
        trace_bytes = std::filesystem::file_size(setup->tracePath);
    const double record_s = idx.totalSeconds("trace_io.appendRegion") +
                            idx.totalSeconds("trace_io.close");
    const double profile_s = idx.selfSeconds("profile.profileWorkload");
    const double ref_s = idx.selfSeconds("sim.runReference");
    const Accuracy accuracy = meanAccuracy(result.items);

    result.metrics = {
        {"workloads.gen_mops",
         ratio(idx.totalWork("workloads.generateRegion") / 1e6,
               idx.totalSeconds("workloads.generateRegion")),
         "Mops/s"},
        {"trace_io.record_mb_s", ratio(trace_bytes / 1e6, record_s), "MB/s"},
        {"trace_io.replay_mops",
         ratio(idx.totalWork("trace_io.readRegion") / 1e6,
               idx.totalSeconds("trace_io.readRegion")),
         "Mops/s"},
        {"trace_io.verify_mops",
         ratio(idx.totalWork("trace_io.verifyRegions") / 1e6,
               idx.totalSeconds("trace_io.verifyRegions")),
         "Mops/s"},
        {"trace_io.file_mb", trace_bytes / 1e6, "MB"},
        {"profile.s", profile_s, "s"},
        {"profile.maccess_s",
         ratio(idx.totalWork("profile.profileWorkload") / 1e6, profile_s),
         "Macc/s"},
        {"profile.reuse_s", idx.selfSeconds("profile.reuseDistance"), "s"},
        {"profile.par_eff",
         ratio(idx.totalSeconds("profile.profileWorkload_1w"),
               workers * idx.totalSeconds("profile.profileWorkload")),
         "ratio"},
        {"core.signature_s", idx.selfSeconds("core.projectProfiles"), "s"},
        {"core.kmeans_s", idx.selfSeconds("core.clusterSignatures"), "s"},
        {"core.kmeans_points",
         static_cast<double>(idx.totalWork("core.clusterSignatures")),
         "count"},
        {"core.analyze_s", idx.selfSeconds("core.analyzeProfiles"), "s"},
        {"core.snapshot_s", idx.selfSeconds("core.captureAnalysisSnapshots"),
         "s"},
        {"core.snapshot_lines",
         static_cast<double>(idx.totalWork("core.captureAnalysisSnapshots")),
         "count"},
        {"core.artifacts_save_s", idx.totalSeconds("core.saveArtifact"), "s"},
        {"core.artifacts_load_s", idx.totalSeconds("core.loadArtifact"), "s"},
        {"core.artifacts_mb", idx.totalWork("core.saveArtifact") / 1e6, "MB"},
        {"core.cycles_err_pct", accuracy.cyclesErrPct, "%"},
        {"core.apki_err_pct", accuracy.apkiErrPct, "%"},
        {"sim.bp_s", idx.selfSeconds("sim.simulateBarrierPoints"), "s"},
        {"sim.bp_warmup_s", idx.selfSeconds("sim.warmup"), "s"},
        {"sim.bp_detail_s", idx.selfSeconds("sim.detail"), "s"},
        {"sim.bp_minstr",
         idx.totalWork("sim.simulateBarrierPoints") / 1e6, "Minstr"},
        {"sim.bp_par_eff",
         ratio(idx.totalSeconds("sim.simulateBarrierPoints_1w"),
               workers * idx.totalSeconds("sim.simulateBarrierPoints")),
         "ratio"},
        {"sim.ref_s", ref_s, "s"},
        {"sim.ref_mips",
         ratio(idx.totalWork("sim.runReference") / 1e6, ref_s), "MIPS"},
        {"memsys.accesses", static_cast<double>(totals.accesses), "count"},
        {"memsys.l1_hit_pct",
         ratio(100.0 * static_cast<double>(totals.l1Hits),
               static_cast<double>(totals.accesses)),
         "%"},
        {"memsys.llc_mpki",
         ratio(static_cast<double>(totals.llcMisses), ref_kinstr), "MPKI"},
        {"memsys.dram_apki",
         ratio(static_cast<double>(totals.dramAccesses), ref_kinstr),
         "APKI"},
        {"support.pool_workers", workers, "count"},
        {"bench.trace_overhead_pct",
         100.0 * ratio(totals.bpSeconds - untraced_bp, untraced_bp), "%"},
    };

    // Where the traced Estimate path spent its time.
    const double bp = totals.bpSeconds;
    std::printf("traced bp_wall_s=%.6f untraced bp_wall_s=%.6f (the pass "
                "after the traced one)\n",
                bp, untraced_bp);
    const std::pair<const char *, double> shares[] = {
        {"profile.s", profile_s},
        {"core.analyze_s", idx.selfSeconds("core.analyzeProfiles")},
        {"core.kmeans_s (split)", idx.selfSeconds("core.clusterSignatures")},
        {"core.snapshot_s", idx.selfSeconds("core.captureAnalysisSnapshots")},
        {"sim.bp_s", idx.selfSeconds("sim.simulateBarrierPoints")},
        {"core.artifacts_save_s", idx.totalSeconds("core.saveArtifact")},
        {"workloads.generateRegion (estimate path, busy)",
         idx.totalSecondsUnder("workloads.generateRegion", "bench.estimate")},
        {"trace_io.readRegion (estimate path, busy)",
         idx.totalSecondsUnder("trace_io.readRegion", "bench.estimate")},
    };
    for (const auto &[name, seconds] : shares)
        std::printf("share of traced bp_wall_s: %-48s %8.4f s  %5.1f%%\n",
                    name, seconds, 100.0 * ratio(seconds, bp));

    std::map<std::string, std::string> meta = {
        {"workload", workloadKindName(options.kind)},
        {"seed", std::to_string(options.seed)},
        {"pool_workers", std::to_string(options.workers)},
    };
    for (size_t i = 0; i < spans.items().size(); ++i)
        meta["item." + std::to_string(i)] = spans.items()[i];
    if (!options.traceOut.empty()) {
        spans.writeChromeTrace(options.traceOut, meta);
        std::printf("trace events: %s\n", options.traceOut.c_str());
    }
    return result;
}

} // namespace bpbench
