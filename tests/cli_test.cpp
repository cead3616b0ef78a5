/**
 * @file
 * Tests for the `bp` CLI's invocation surface: --help output lists
 * the registered workload and machine names, and exit codes separate
 * usage errors (2) from runtime failures (1) and success (0).
 *
 * The binary path is injected by CMake as BP_CLI_PATH; these tests
 * only exercise cheap paths (help and error handling), not full
 * pipeline runs — those live in the CI artifact-flow jobs.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

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
          "bogus"}) {
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
    // One strict parser backs --memory-budget and record's --buffer:
    // negative numbers, overflow, and trailing junk all exit 2
    // (strtoull would have read "-1" as 2^64 - 1).
    for (const std::string bad : {"-1", "0", "12X", "4M2", "", "k",
                                  "99999999999999999999", "16777216T"}) {
        const RunResult budget = runCli(
            "analyze --profile x.bp --streaming yes --memory-budget '" +
            bad + "' -o /dev/null");
        EXPECT_EQ(budget.exitCode, 2) << "--memory-budget " << bad;
        EXPECT_NE(budget.output.find("--memory-budget"),
                  std::string::npos)
            << bad;

        const RunResult buffer =
            runCli("record --workload npb-is --buffer '" + bad +
                   "' -o /dev/null");
        EXPECT_EQ(buffer.exitCode, 2) << "--buffer " << bad;
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
}

} // namespace
