/**
 * @file
 * Tests for the `bp` CLI: --help output lists the registered workload
 * and machine names, exit codes separate usage errors (2) from runtime
 * failures (1) and success (0), and every subcommand's success path
 * runs end to end through on-disk artifacts — the artifact chain with
 * its snapshot cache, cold and warm sweeps, trace record/replay
 * against the direct pipeline, and the pipeline at every width up to
 * the 1024-core ceiling.
 *
 * The binary path is injected by CMake as BP_CLI_PATH.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "src/core/artifacts.h"
#include "src/support/serialize.h"

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string output;  ///< stdout + stderr, interleaved
};

/** Run the CLI with @p args, capturing both output streams. */
RunResult
runCli(const std::string &args)
{
    const std::string command =
        std::string(BP_CLI_PATH) + " " + args + " 2>&1";
    RunResult result;
    std::FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << command;
    if (!pipe)
        return result;
    std::array<char, 4096> buffer;
    size_t n;
    while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
        result.output.append(buffer.data(), n);
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** Run the CLI with @p args, expecting success; @return its output. */
std::string
runOk(const std::string &args)
{
    const RunResult result = runCli(args);
    EXPECT_EQ(result.exitCode, 0) << "bp " << args << "\n" << result.output;
    return result.output;
}

/** A fresh directory under the test temp dir, removed on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(::testing::TempDir() + "cli_" + name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** Path of @p leaf inside the directory. */
    std::string
    operator/(const std::string &leaf) const
    {
        return path_ + "/" + leaf;
    }

  private:
    std::string path_;
};

/** The bytes of @p path ("" when unreadable). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Every file in @p dir, by name. */
std::map<std::string, std::string>
readDir(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files[entry.path().filename().string()] =
            readFile(entry.path().string());
    return files;
}

/** Files in @p dir whose names end in @p suffix. */
size_t
countFiles(const std::string &dir, const std::string &suffix)
{
    size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        n += entry.path().string().ends_with(suffix);
    return n;
}

TEST(CliTest, HelpExitsZeroAndListsWorkloadsAndMachines)
{
    for (const std::string invocation : {"--help", "-h", "help"}) {
        const RunResult result = runCli(invocation);
        EXPECT_EQ(result.exitCode, 0) << invocation;
        EXPECT_NE(result.output.find("usage: bp"), std::string::npos);
        // Registered workload names...
        EXPECT_NE(result.output.find("npb-cg"), std::string::npos);
        EXPECT_NE(result.output.find("parsec-bodytrack"),
                  std::string::npos);
        // ...and machine names, including the generic pattern.
        EXPECT_NE(result.output.find("8-core"), std::string::npos);
        EXPECT_NE(result.output.find("64-core"), std::string::npos);
        EXPECT_NE(result.output.find("<N>-core"), std::string::npos);
    }
}

TEST(CliTest, SubcommandHelpPrintsUsage)
{
    const RunResult result = runCli("profile --help");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("usage: bp"), std::string::npos);
}

TEST(CliTest, HelpWhereAValueBelongsStaysAUsageError)
{
    // `--help` in a value position is a malformed command line, not a
    // help request — scripts must still see the failure.
    const RunResult result =
        runCli("profile --workload --help -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
}

TEST(CliTest, NoArgumentsIsAUsageError)
{
    const RunResult result = runCli("");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("usage: bp"), std::string::npos);
}

TEST(CliTest, UnknownCommandIsAUsageError)
{
    const RunResult result = runCli("frobnicate");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownOptionIsAUsageError)
{
    const RunResult result =
        runCli("profile --workload npb-is --bogus 1 -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown option"), std::string::npos);

    // -o has no long alias.
    const RunResult alias =
        runCli("profile --workload npb-is --output /dev/null");
    EXPECT_EQ(alias.exitCode, 2);
    EXPECT_NE(alias.output.find("unknown option"), std::string::npos);

    // record's output does not depend on a buffer size, so it takes
    // none.
    const RunResult buffer =
        runCli("record --workload npb-is --buffer 64 -o /dev/null");
    EXPECT_EQ(buffer.exitCode, 2);
    EXPECT_NE(buffer.output.find("unknown option"), std::string::npos);
}

TEST(CliTest, EachCommandTakesExactlyTheOptionsItsUsageLists)
{
    // Parse `bp --help`: a command line is "  <name>  <summary>", and
    // the option lines under it are indented 15 columns.
    const RunResult help = runCli("--help");
    ASSERT_EQ(help.exitCode, 0);
    std::map<std::string, std::set<std::string>> options;
    std::set<std::string> every_option;
    std::string command;
    std::istringstream lines(help.output);
    for (std::string line; std::getline(lines, line);) {
        const bool named = line.size() > 2 &&
                           std::islower(static_cast<unsigned char>(line[2]));
        if (line.starts_with("  ") && named) {
            command = line.substr(2, line.find(' ', 2) - 2);
        } else if (line.starts_with(std::string(15, ' ')) &&
                   !command.empty()) {
            std::istringstream words(line);
            for (std::string word; words >> word;) {
                if (word.starts_with('['))
                    word.erase(0, 1);
                if (word.starts_with('-')) {
                    options[command].insert(word);
                    every_option.insert(word);
                }
            }
        }
    }
    ASSERT_EQ(options.size(), 9u) << help.output;
    EXPECT_TRUE(options["report"].count("--reference"));
    EXPECT_TRUE(options["sweep"].count("--reference"));

    // Every listed option parses on its command; every other command's
    // option is unknown there, whatever else is missing.
    for (const auto &[name, own] : options) {
        for (const std::string &option : every_option) {
            const RunResult result = runCli(name + " " + option + " x");
            EXPECT_EQ(result.output.find("unknown option") ==
                          std::string::npos,
                      own.count(option) > 0)
                << "bp " << name << " " << option << " x\n"
                << result.output;
        }
    }
}

TEST(CliTest, RepeatedOptionIsAUsageErrorNamingIt)
{
    const RunResult result = runCli(
        "profile --workload npb-is --threads 2 --threads 4 -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("'--threads' given twice"),
              std::string::npos)
        << result.output;
}

TEST(CliTest, UnknownOptionIsReportedBeforeMissingOnes)
{
    const RunResult result = runCli("profile --help-me x");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown option '--help-me'"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("--workload"), std::string::npos)
        << result.output;
}

TEST(CliTest, MissingOutputNamesDashO)
{
    for (const std::string args :
         {"profile --workload npb-is", "analyze --profile x.bp",
          "simulate --analysis x.bp --machine 8-core",
          "reference --analysis x.bp --machine 8-core",
          "record --workload npb-is"}) {
        const RunResult result = runCli(args);
        EXPECT_EQ(result.exitCode, 2) << args;
        EXPECT_NE(result.output.find("missing required option '-o'"),
                  std::string::npos)
            << args << "\n" << result.output;
    }
}

TEST(CliTest, UnknownWorkloadIsAUsageErrorListingNames)
{
    const RunResult result =
        runCli("profile --workload no-such-benchmark -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown workload"), std::string::npos);
    // The error itself names the valid choices.
    EXPECT_NE(result.output.find("npb-cg"), std::string::npos);
    EXPECT_NE(result.output.find("npb-ft"), std::string::npos);
}

TEST(CliTest, UnknownMachineIsAUsageErrorListingNames)
{
    const RunResult result = runCli(
        "simulate --analysis missing.bp --machine warp-drive -o out.bp");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown machine"), std::string::npos);
    EXPECT_NE(result.output.find("32-core"), std::string::npos);
    EXPECT_NE(result.output.find("<N>-core"), std::string::npos);
}

TEST(CliTest, BadOptionValueIsAUsageError)
{
    const RunResult threads =
        runCli("profile --workload npb-is --threads lots -o /dev/null");
    EXPECT_EQ(threads.exitCode, 2);
    EXPECT_NE(threads.output.find("wants a non-negative integer"),
              std::string::npos);

    const RunResult range =
        runCli("profile --workload npb-is --threads 1025 -o /dev/null");
    EXPECT_EQ(range.exitCode, 2);

    // 2^32 + 1 used to wrap to 1 thread and run.
    const RunResult wrapped = runCli(
        "profile --workload npb-is --threads 4294967297 -o /dev/null");
    EXPECT_EQ(wrapped.exitCode, 2);
    EXPECT_NE(wrapped.output.find("4294967297"), std::string::npos);

    const RunResult missing = runCli("analyze --profile");
    EXPECT_EQ(missing.exitCode, 2);
    EXPECT_NE(missing.output.find("missing its value"),
              std::string::npos);

    // Garbage --jobs must be a usage error, not a thread-pool panic.
    const RunResult jobs =
        runCli("profile --workload npb-is --jobs -1 -o /dev/null");
    EXPECT_EQ(jobs.exitCode, 2);
    EXPECT_NE(jobs.output.find("--jobs"), std::string::npos);

    // Real knobs: "nan" used to pass the positivity check and panic in
    // the workload, "inf" and "1e400" profiled a degenerate run, and
    // a significance outside [0, 1] marked every barrierpoint or none.
    for (const std::string scale : {"nan", "inf", "1e400"}) {
        const RunResult result =
            runCli("profile --workload npb-is --threads 2 --scale " +
                   scale + " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << scale;
        EXPECT_NE(result.output.find("--scale"), std::string::npos)
            << scale;
    }
    for (const std::string significance : {"nan", "-0.5", "2"}) {
        const RunResult result =
            runCli("analyze --profile missing.bp --significance " +
                   significance + " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << significance;
        EXPECT_NE(result.output.find("--significance"), std::string::npos)
            << significance;
    }
}

TEST(CliTest, IntegerOptionsRejectEveryStrtoullLeniency)
{
    // Integer options parse through the strict parseUint(), not
    // strtoull: trailing junk ("8x" used to read as 8), signs ("-1"
    // used to read as 2^64 - 1, "+8" as 8), embedded or leading
    // whitespace, empty values, base prefixes, and overflow must all
    // exit 2 with the option named, never run with a half-parsed or
    // wrapped value.
    for (const std::string bad :
         {"8x", "-1", "+8", "' 8'", "'8 '", "0x10", "''",
          "99999999999999999999999999"}) {
        for (const std::string option : {"--threads", "--seed"}) {
            const RunResult result =
                runCli("profile --workload npb-is " + option + " " +
                       bad + " -o /dev/null");
            EXPECT_EQ(result.exitCode, 2) << option << " " << bad;
            EXPECT_NE(result.output.find(option), std::string::npos)
                << option << " " << bad;
            EXPECT_NE(result.output.find("wants a non-negative integer"),
                      std::string::npos)
                << option << " " << bad;
        }
    }
    // The same class through `--profiling sampled_adaptive:S`, whose
    // budget is parsed from the mode string rather than an option.
    for (const std::string bad :
         {"sampled_adaptive:64x", "sampled_adaptive:-1",
          "sampled_adaptive:+64",
          "sampled_adaptive:99999999999999999999999999"}) {
        const RunResult result =
            runCli("profile --workload npb-is --profiling " + bad +
                   " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << bad;
        EXPECT_NE(result.output.find("sampled_adaptive"),
                  std::string::npos)
            << bad;
    }
}

TEST(CliTest, ClusteringCountsOutOfRangeAreUsageErrors)
{
    // --max-k and --dim feed unsigned clustering parameters: zero used
    // to panic (exit 134) and 2^32 + 2 to run silently as 2. Both
    // analyze and sweep reject them before touching any input.
    for (const std::string bad : {"0", "4294967296", "4294967298"}) {
        for (const std::string option : {"--max-k", "--dim"}) {
            const RunResult analyze =
                runCli("analyze --profile missing.bp -o /dev/null " +
                       option + " " + bad);
            EXPECT_EQ(analyze.exitCode, 2) << option << " " << bad;
            EXPECT_NE(analyze.output.find(option), std::string::npos)
                << option << " " << bad;

            const RunResult sweep =
                runCli("sweep --workload npb-is " + option + " " + bad);
            EXPECT_EQ(sweep.exitCode, 2) << option << " " << bad;
            EXPECT_NE(sweep.output.find(option), std::string::npos)
                << option << " " << bad;
        }
    }
}

TEST(CliTest, BadProfilingValueIsAUsageError)
{
    // Out-of-range rates and malformed modes must exit 2 with a
    // message, never trip an assertion inside ProfilingConfig.
    for (const std::string bad :
         {"sampled:0", "sampled:1.5", "sampled:-0.1", "sampled:abc",
          "sampled", "sampled_adaptive:0", "sampled_adaptive:junk",
          "bogus", "adaptive:64"}) {
        const RunResult result =
            runCli("profile --workload npb-is --profiling " + bad +
                   " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << bad;
        EXPECT_NE(result.output.find("profiling"), std::string::npos)
            << bad;
    }

    // sweep shares the flag and the validation.
    const RunResult sweep = runCli(
        "sweep --workload npb-is --profiling sampled:2 -o /dev/null");
    EXPECT_EQ(sweep.exitCode, 2);
    const RunResult sweep_rate =
        runCli("sweep --workload npb-is --profiling sampled:2");
    EXPECT_EQ(sweep_rate.exitCode, 2);
    EXPECT_NE(sweep_rate.output.find("profiling"), std::string::npos);
}

TEST(CliTest, HelpDocumentsTraceWorkloadsAndTraceCommands)
{
    const RunResult result = runCli("--help");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("trace:<path>"), std::string::npos);
    for (const std::string command : {"record", "ingest", "digest"})
        EXPECT_NE(result.output.find(command), std::string::npos)
            << command;
}

TEST(CliTest, UnknownWorkloadSchemeIsAUsageError)
{
    const RunResult result =
        runCli("profile --workload pinball:foo -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown workload scheme"),
              std::string::npos);
    EXPECT_NE(result.output.find("trace:<path>"), std::string::npos);

    const RunResult empty =
        runCli("profile --workload trace: -o /dev/null");
    EXPECT_EQ(empty.exitCode, 2);
}

TEST(CliTest, MissingTraceFileIsAUsageError)
{
    const RunResult result = runCli(
        "profile --workload trace:/nonexistent/x.bptrace -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("does not exist"), std::string::npos);
}

TEST(CliTest, WorkloadParametersDoNotApplyToTraces)
{
    for (const std::string knob : {"--threads 4", "--scale 2.0",
                                   "--seed 7"}) {
        const RunResult result =
            runCli("profile --workload trace:x.bptrace " + knob +
                   " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << knob;
        EXPECT_NE(result.output.find("do not apply"), std::string::npos)
            << knob;
    }
}

TEST(CliTest, CorruptTraceFileIsARuntimeFailure)
{
    const std::string path = ::testing::TempDir() + "cli_garbage.bptrace";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    // Long enough to pass the minimum-size check and fail on magic.
    const char junk[] = "this is not a trace file, not even close — "
                        "it only exists to be rejected by the reader";
    std::fwrite(junk, 1, sizeof(junk), file);
    std::fclose(file);

    const RunResult replay =
        runCli("profile --workload trace:" + path + " -o /dev/null");
    EXPECT_EQ(replay.exitCode, 1);
    EXPECT_NE(replay.output.find("fatal"), std::string::npos);

    const RunResult ingest = runCli("ingest --trace " + path);
    EXPECT_EQ(ingest.exitCode, 1);
    EXPECT_NE(ingest.output.find("not a bptrace file"),
              std::string::npos);

    // A missing trace given to ingest is a runtime failure too: the
    // trace is the object under inspection, like a missing artifact.
    const RunResult missing =
        runCli("ingest --trace /nonexistent/x.bptrace");
    EXPECT_EQ(missing.exitCode, 1);

    std::remove(path.c_str());
}

TEST(CliTest, ByteSizeOptionsRejectMalformedValues)
{
    // One strict parser backs --memory-budget: negative numbers,
    // overflow, and trailing junk all exit 2 (strtoull would have
    // read "-1" as 2^64 - 1).
    for (const std::string bad : {"-1", "0", "12X", "4M2", "", "k",
                                  "99999999999999999999", "16777216T"}) {
        const RunResult budget = runCli(
            "analyze --profile x.bp --streaming yes --memory-budget '" +
            bad + "' -o /dev/null");
        EXPECT_EQ(budget.exitCode, 2) << "--memory-budget " << bad;
        EXPECT_NE(budget.output.find("--memory-budget"),
                  std::string::npos)
            << bad;
    }
}

TEST(CliTest, RuntimeFailuresExitOne)
{
    // A missing artifact is a runtime failure, not a usage error.
    const RunResult missing = runCli(
        "analyze --profile /nonexistent/x.profile.bp -o /dev/null");
    EXPECT_EQ(missing.exitCode, 1);
    EXPECT_NE(missing.output.find("fatal"), std::string::npos);

    const RunResult report = runCli(
        "report --analysis /nonexistent/x.analysis.bp --result y.bp");
    EXPECT_EQ(report.exitCode, 1);

    // digest loads, and so validates, what it digests: a missing or
    // foreign file (here the bp executable) fails the same way.
    EXPECT_EQ(runCli("digest --artifact /nonexistent/x.bp").exitCode, 1);
    const RunResult foreign =
        runCli(std::string("digest --artifact ") + BP_CLI_PATH);
    EXPECT_EQ(foreign.exitCode, 1);
    EXPECT_NE(foreign.output.find("not a BarrierPoint artifact"),
              std::string::npos)
        << foreign.output;

    // Any other exception is one too, never an abort (exit 134): an
    // absurd scale throws std::length_error from vector::reserve, and
    // the message quotes the command line that asked for it.
    const RunResult huge = runCli(
        "profile --workload npb-is --threads 2 --scale 1e300 -o /dev/null");
    EXPECT_EQ(huge.exitCode, 1) << huge.output;
    EXPECT_NE(huge.output.find("fatal"), std::string::npos);
    EXPECT_NE(huge.output.find("--scale"), std::string::npos) << huge.output;
}

TEST(CliTest, ProfileWithBbvIdsOutOfOrderIsARuntimeFailure)
{
    // A profile whose BBV ids repeat or descend is corrupt even under
    // a valid checksum: the profiler writes them strictly ascending.
    // Its one thread stores (3, 40) then (7, 100); rewrite the ids to
    // (7, 3) and to (5, 5), and reseal the header's checksum as a
    // well-formed file would have it. Loading it is a typed error, so
    // digest, which loads what it digests, exits 1.
    const ScratchDir dir("unordered_bbv");
    const std::string path = dir / "unordered.profile.bp";
    bp::ProfileArtifact artifact;
    artifact.workload.name = "npb-is";
    artifact.profiles.resize(1);
    artifact.profiles[0].threads.resize(1);
    artifact.profiles[0].threads[0].bbv = {{3, 40}, {7, 100}};
    std::array<uint8_t, 16> pair{};
    bp::storeLe(pair.data(), 3, 4);
    bp::storeLe(pair.data() + 4, 40, 8);
    bp::storeLe(pair.data() + 12, 7, 4);
    for (const auto &[first, second] : {std::pair{7u, 3u}, {5u, 5u}}) {
        bp::saveArtifact(path, artifact);
        std::string bytes = readFile(path);
        uint8_t *data = reinterpret_cast<uint8_t *>(bytes.data());
        const size_t at = bytes.find(
            std::string(reinterpret_cast<const char *>(pair.data()),
                        pair.size()));
        ASSERT_NE(at, std::string::npos);
        bp::storeLe(data + at, first, 4);
        bp::storeLe(data + at + 12, second, 4);
        bp::storeLe(data + 24, bp::fnv1aHash(data + 32, bytes.size() - 32),
                    8);
        std::ofstream(path, std::ios::binary) << bytes;
        EXPECT_THROW(bp::loadProfileArtifact(path), bp::SerializeError);
        const RunResult digest = runCli("digest --artifact " + path);
        EXPECT_EQ(digest.exitCode, 1) << digest.output;
        EXPECT_NE(digest.output.find("out of order"), std::string::npos)
            << digest.output;
    }
}

TEST(CliTest, ArtifactFlowChainsEveryStageThroughFiles)
{
    const ScratchDir dir("artifact_flow");
    const std::string analysis = dir / "is.analysis.bp";
    const std::string result = dir / "is.4c.result.bp";
    runOk("profile --workload npb-is --threads 4 --scale 0.25 -o " +
          (dir / "is.profile.bp"));
    runOk("analyze --profile " + (dir / "is.profile.bp") + " -o " +
          analysis);

    // Two machines from the same analysis; the 4-core run captures a
    // snapshot cache that a re-run reloads bit-identically.
    const std::string simulate4 = "simulate --analysis " + analysis +
                                  " --machine 4-core --snapshots " +
                                  (dir / "is.4c.snaps.bp") + " -o ";
    const std::string captured = runOk(simulate4 + result);
    EXPECT_NE(captured.find("captured MRU snapshots"), std::string::npos)
        << captured;
    runOk("simulate --analysis " + analysis + " --machine 8-core -o " +
          (dir / "is.8c.result.bp"));
    const std::string reused = runOk(simulate4 + (dir / "is.4c.result2.bp"));
    EXPECT_NE(reused.find("reusing MRU snapshots"), std::string::npos)
        << reused;
    EXPECT_FALSE(readFile(result).empty());
    EXPECT_TRUE(readFile(result) == readFile(dir / "is.4c.result2.bp"));

    runOk("reference --analysis " + analysis + " --machine 4-core -o " +
          (dir / "is.4c.reference.bp"));
    const std::string report =
        runOk("report --analysis " + analysis + " --result " + result +
              " --reference " + (dir / "is.4c.reference.bp"));
    EXPECT_NE(report.find("reconstruction error"), std::string::npos)
        << report;

    // A truncated artifact is rejected...
    std::ofstream(dir / "truncated.bp", std::ios::binary)
        << readFile(analysis).substr(0, 100);
    EXPECT_EQ(runCli("report --analysis " + (dir / "truncated.bp") +
                     " --result " + result)
                  .exitCode,
              1);

    // ...and so is a machine narrower than the profile, with advice.
    const RunResult narrow =
        runCli("simulate --analysis " + analysis + " --machine 2-core -o " +
               (dir / "is.2c.result.bp"));
    EXPECT_EQ(narrow.exitCode, 1);
    EXPECT_NE(narrow.output.find("pick a machine"), std::string::npos)
        << narrow.output;
}

TEST(CliTest, SweepReloadsItsArtifactCacheBitIdentically)
{
    const ScratchDir dir("sweep");
    const std::string sweep =
        "sweep --workload npb-is --threads 4 --scale 0.25 "
        "--machines 4-core,8-core,16-core --reference yes --artifacts " +
        (dir / "cache");
    const std::string cold = runOk(sweep);
    const std::map<std::string, std::string> cold_files =
        readDir(dir / "cache");
    // Every stage is cached: profile, analysis, two snapshot sets (4-
    // and 8-core share the single-socket capture capacity; 16-core is
    // two sockets), three results and three references.
    EXPECT_EQ(cold_files.size(), 10u);

    EXPECT_EQ(runOk(sweep), cold);
    EXPECT_TRUE(readDir(dir / "cache") == cold_files)
        << "the warm sweep changed or added an artifact";

    // A streaming sweep writes its analysis but never a profile.
    runOk("sweep --workload npb-is --threads 4 --scale 0.25 "
          "--machines 4-core --streaming yes --memory-budget 64M "
          "--artifacts " +
          (dir / "streaming"));
    EXPECT_EQ(countFiles(dir / "streaming", ".analysis.bp"), 1u);
    EXPECT_EQ(countFiles(dir / "streaming", ".profile.bp"), 0u);
}

TEST(CliTest, TraceReplayMatchesTheDirectPipeline)
{
    const ScratchDir dir("trace_replay");
    // Stage payloads are compared through `bp digest`, which excludes
    // the embedded workload spec: the one field that legitimately
    // differs between a generated and a replayed run.
    const auto digest = [](const std::string &artifact) {
        return runOk("digest --artifact " + artifact).substr(0, 16);
    };
    // The report without its first line, which names the workload.
    const auto report = [&](const std::string &stem) {
        const std::string out =
            runOk("report --analysis " + (dir / stem) + ".analysis.bp" +
                  " --result " + (dir / stem) + ".result.bp");
        return out.substr(out.find('\n') + 1);
    };
    for (const std::string workload : {"npb-is", "npb-ft"}) {
        for (const std::string threads : {"2", "4"}) {
            SCOPED_TRACE(workload + " at " + threads + " threads");
            const std::string trace =
                dir / (workload + "." + threads + ".bptrace");
            runOk("record --workload " + workload + " --threads " +
                  threads + " --scale 0.25 -o " + trace);
            runOk("ingest --trace " + trace + " --verify yes");

            // The pipeline from the generator, and from the recording
            // on eight workers.
            const auto pipeline = [&](const std::string &stem,
                                      const std::string &source,
                                      const std::string &jobs) {
                const std::string out = dir / stem;
                runOk("profile " + source + jobs + " -o " + out +
                      ".profile.bp");
                runOk("analyze --profile " + out + ".profile.bp" + jobs +
                      " -o " + out + ".analysis.bp");
                runOk("simulate --analysis " + out + ".analysis.bp" +
                      " --machine " + threads + "-core" + jobs + " -o " +
                      out + ".result.bp");
            };
            pipeline("direct",
                     "--workload " + workload + " --threads " + threads +
                         " --scale 0.25",
                     "");
            pipeline("replay", "--workload trace:" + trace, " --jobs 8");
            for (const std::string stage : {"profile", "analysis", "result"})
                EXPECT_EQ(digest(dir / ("direct." + stage + ".bp")),
                          digest(dir / ("replay." + stage + ".bp")))
                    << stage;
            EXPECT_EQ(report("direct"), report("replay"));
        }
    }

    // Sampled profiling and streaming analysis run over a trace too.
    runOk("sweep --workload trace:" + (dir / "npb-is.4.bptrace") +
          " --machines 4-core --profiling sampled_adaptive:4096 "
          "--streaming yes --memory-budget 64M --artifacts " +
          (dir / "cache"));
    EXPECT_EQ(countFiles(dir / "cache", ".analysis.bp"), 1u);
}

TEST(CliTest, PipelineRunsAtEveryWidthUpToTheCoreCeiling)
{
    // One profile per width, since simulate runs the profiled thread
    // count: every coherence-directory and capture-holder tier runs
    // end to end, including the snapshot cache (under UBSan, any
    // out-of-width mask shift fails the run).
    const ScratchDir dir("widths");
    for (const unsigned n : {8u, 16u, 32u, 48u, 64u, 128u, 256u, 512u,
                             1024u}) {
        SCOPED_TRACE(std::to_string(n) + " threads");
        const std::string width = std::to_string(n);
        const std::string stem = dir / ("is" + width);
        const std::string machine = " --machine " + width + "-core";
        runOk("profile --workload npb-is --threads " + width +
              " --scale 0.1 -o " + stem + ".profile.bp");
        runOk("analyze --profile " + stem + ".profile.bp -o " + stem +
              ".analysis.bp");
        runOk("simulate --analysis " + stem + ".analysis.bp" + machine +
              " --snapshots " + stem + ".snaps.bp -o " + stem +
              ".result.bp");
        runOk("reference --analysis " + stem + ".analysis.bp" + machine +
              " -o " + stem + ".reference.bp");
        runOk("report --analysis " + stem + ".analysis.bp --result " +
              stem + ".result.bp --reference " + stem + ".reference.bp");
    }
}

} // namespace
