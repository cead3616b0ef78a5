/**
 * @file
 * Trace-replay throughput benchmark: mmap'd `.bptrace` ingestion vs
 * synthetic regeneration.
 *
 * The trace subsystem's economic claim is that replaying a recording
 * is not slower than generating the workload's regions from scratch —
 * otherwise recording would buy reproducibility at the price of every
 * downstream profiling pass. This binary records a registered
 * workload once (TraceWriter), then times three passes over the same
 * regions: direct generateRegion() on the synthetic workload, mmap'd
 * TraceReader::readRegion() replay, and the verify-only scan that
 * backs `bp ingest --verify` (checksum + structure, no RegionTrace
 * materialization). Both materializing passes fold the ops into the
 * same checksum, which must match — the race cannot silently compare
 * different work.
 *
 * Usage:
 *   perf_ingest [--workload NAME] [--threads T] [--scale S]
 *               [--passes N] [--keep-trace FILE] [--json [FILE]]
 *
 * Numbers are recorded in bench/BASELINE.md; the CI trace-roundtrip
 * job runs the correctness side (bit-identical artifacts), not this
 * timing harness.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>

#include "bench/bench_util.h"
#include "src/trace_io/trace_reader.h"
#include "src/trace_io/trace_writer.h"
#include "src/workloads/registry.h"

namespace bp {
namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Fold a region's ops into an order-sensitive FNV-1a checksum. */
uint64_t
foldRegion(const RegionTrace &region, uint64_t fnv)
{
    uint8_t bytes[13];
    for (unsigned t = 0; t < region.threadCount(); ++t) {
        for (const MicroOp &op : region.thread(t)) {
            storeLe(bytes, op.addr, 8);
            storeLe(bytes + 8, op.bb, 4);
            bytes[12] = static_cast<uint8_t>(op.kind);
            fnv = fnv1aHash(bytes, sizeof(bytes), fnv);
        }
    }
    return fnv;
}

struct PassResult
{
    double seconds = 0.0;
    uint64_t checksum = kFnv1aBasis;
};

} // namespace
} // namespace bp

int
main(int argc, char **argv)
{
    using namespace bp;

    std::string workload_name = "npb-cg";
    unsigned threads = 4;
    double scale = 1.0;
    unsigned passes = 3;
    std::string trace_path;
    bool keep_trace = false;
    bool json = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--workload") && i + 1 < argc) {
            workload_name = argv[++i];
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(
                parseUintArg("--threads", argv[++i]));
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            scale = std::strtod(argv[++i], nullptr);
        } else if (!std::strcmp(argv[i], "--passes") && i + 1 < argc) {
            passes = static_cast<unsigned>(
                parseUintArg("--passes", argv[++i]));
        } else if (!std::strcmp(argv[i], "--keep-trace") && i + 1 < argc) {
            trace_path = argv[++i];
            keep_trace = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--workload NAME] [--threads T] "
                         "[--scale S] [--passes N] [--keep-trace FILE] "
                         "[--json [FILE]]\n",
                         argv[0]);
            return 2;
        }
    }
    if (trace_path.empty())
        trace_path = "perf_ingest.tmp.bptrace";

    WorkloadParams params;
    params.threads = threads;
    params.scale = scale;
    const auto workload = makeWorkload(workload_name, params);
    const unsigned regions = workload->regionCount();

    // Record once (not timed against the passes below: recording is a
    // one-time cost, the races measure the repeated per-pass work).
    const double record_start = now();
    {
        TraceWriter writer(trace_path, threads);
        for (unsigned i = 0; i < regions; ++i)
            writer.appendRegion(workload->generateRegion(i));
        writer.close();
    }
    const double record_seconds = now() - record_start;

    TraceReader reader(trace_path);
    const uint64_t ops = reader.opCount();
    const uint64_t records = reader.recordCount();
    const uint64_t bytes = reader.fileBytes();

    std::printf("%s: %u regions, %u threads, %llu ops, %.1f MB trace\n",
                workload_name.c_str(), regions, threads,
                (unsigned long long)ops, bytes / 1048576.0);
    std::printf("recorded in %.2f s (%.1f M records/s)\n", record_seconds,
                records / record_seconds / 1e6);

    // Best-of-N for each pass: the trace file is page-cache-hot after
    // recording, which is the steady state replay actually runs in.
    PassResult generate, replay, verify;
    for (unsigned pass = 0; pass < passes; ++pass) {
        double start = now();
        uint64_t fnv = kFnv1aBasis;
        for (unsigned i = 0; i < regions; ++i)
            fnv = foldRegion(workload->generateRegion(i), fnv);
        double elapsed = now() - start;
        if (pass == 0 || elapsed < generate.seconds)
            generate.seconds = elapsed;
        generate.checksum = fnv;

        start = now();
        fnv = kFnv1aBasis;
        for (unsigned i = 0; i < regions; ++i)
            fnv = foldRegion(reader.readRegion(i), fnv);
        elapsed = now() - start;
        if (pass == 0 || elapsed < replay.seconds)
            replay.seconds = elapsed;
        replay.checksum = fnv;

        start = now();
        reader.verifyAll();
        elapsed = now() - start;
        if (pass == 0 || elapsed < verify.seconds)
            verify.seconds = elapsed;
    }

    if (generate.checksum != replay.checksum) {
        std::fprintf(stderr,
                     "checksum mismatch: generated %016llx, replayed "
                     "%016llx — the trace does not reproduce the "
                     "workload\n",
                     (unsigned long long)generate.checksum,
                     (unsigned long long)replay.checksum);
        return 1;
    }

    const double ratio = generate.seconds / replay.seconds;
    std::printf("generate: %.3f s (%.1f M ops/s)\n", generate.seconds,
                ops / generate.seconds / 1e6);
    std::printf("replay:   %.3f s (%.1f M ops/s, %.1f MB/s) — %.2fx "
                "vs generate\n",
                replay.seconds, ops / replay.seconds / 1e6,
                bytes / replay.seconds / 1048576.0, ratio);
    std::printf("verify:   %.3f s (%.1f M records/s)\n", verify.seconds,
                records / verify.seconds / 1e6);
    std::printf("peak RSS %.1f MB; checksums match (%016llx)\n",
                peakRssBytes() / 1048576.0,
                (unsigned long long)replay.checksum);

    if (json) {
        FILE *out = stdout;
        if (!json_path.empty()) {
            out = std::fopen(json_path.c_str(), "w");
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             json_path.c_str());
                return 1;
            }
        }
        std::fprintf(out,
                     "{\n"
                     "  \"workload\": \"%s\",\n"
                     "  \"threads\": %u,\n"
                     "  \"regions\": %u,\n"
                     "  \"ops\": %llu,\n"
                     "  \"trace_bytes\": %llu,\n"
                     "  \"record_seconds\": %.4f,\n"
                     "  \"generate_seconds\": %.4f,\n"
                     "  \"replay_seconds\": %.4f,\n"
                     "  \"verify_seconds\": %.4f,\n"
                     "  \"replay_vs_generate\": %.3f,\n"
                     "  \"peak_rss_bytes\": %llu\n"
                     "}\n",
                     workload_name.c_str(), threads, regions,
                     (unsigned long long)ops, (unsigned long long)bytes,
                     record_seconds, generate.seconds, replay.seconds,
                     verify.seconds, ratio,
                     (unsigned long long)peakRssBytes());
        if (out != stdout)
            std::fclose(out);
    }

    if (!keep_trace)
        std::remove(trace_path.c_str());
    return 0;
}
