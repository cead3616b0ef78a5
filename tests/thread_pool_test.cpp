/**
 * @file
 * Unit tests for the support-layer thread pool: ordered result
 * collection, exception propagation, pool reuse, re-entrancy, and the
 * serial fallback paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/support/execution_context.h"
#include "src/support/thread_pool.h"

namespace bp {
namespace {

TEST(ThreadPoolTest, SingleExecutorRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<int> order;
    pool.parallelFor(0, 5, [&](uint64_t i) {
        order.push_back(static_cast<int>(i));  // safe: inline serial
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroSelectsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, [&](uint64_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    }, 7);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelMapCollectsResultsInIndexOrder)
{
    ThreadPool pool(4);
    const auto out = pool.parallelMap<uint64_t>(
        1000, [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyInvocations)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(0, 100, [&](uint64_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), 4950u) << "round " << round;
    }
}

TEST(ThreadPoolTest, ExceptionFromSmallestIndexPropagates)
{
    ThreadPool pool(4);
    // Many rounds: a helper that drops the last reference to the job
    // while the caller reads the exception races only now and then.
    for (int round = 0; round < 2000; ++round) {
        try {
            pool.parallelFor(0, 256, [](uint64_t i) {
                if (i % 64 == 3)  // throws at 3, 67, 131, 195
                    throw std::runtime_error("task " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            ASSERT_STREQ(e.what(), "task 3") << "round " << round;
        }
    }
}

TEST(ThreadPoolTest, ExceptionPropagatesOnSerialFallbackToo)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(0, 4,
                                  [](uint64_t) {
                                      throw std::logic_error("boom");
                                  }),
                 std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForDegradesToSerialNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<uint64_t> total{0};
    // Outer tasks run on workers; their inner parallelFor must detect
    // the re-entrancy and run inline instead of blocking on the queue.
    pool.parallelFor(0, 8, [&](uint64_t) {
        pool.parallelFor(0, 16, [&](uint64_t j) {
            total.fetch_add(j, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 8u * 120u);
}

/**
 * TSan-targeted stress: oversubscribed pool (more executors than the
 * hardware likely has, far more tasks than executors) and nested
 * parallelFor from inside workers. Asserts full completion and result
 * identity against the serial loop; under -fsanitize=thread (the CI
 * tsan job) it is the pool's race detector.
 */
TEST(ThreadPoolTest, OversubscribedNestedStressMatchesSerial)
{
    ThreadPool pool(16);  // deliberately past most CI hardware
    constexpr size_t outer = 64, inner = 32;

    // The serial reference: out[i] = sum of f(i, j) over inner js.
    auto cell = [](uint64_t i, uint64_t j) { return i * 1000003 + j * j; };
    std::vector<uint64_t> expected(outer);
    for (uint64_t i = 0; i < outer; ++i)
        for (uint64_t j = 0; j < inner; ++j)
            expected[i] += cell(i, j);

    for (int round = 0; round < 8; ++round) {
        std::vector<uint64_t> out(outer, 0);
        pool.parallelFor(0, outer, [&](uint64_t i) {
            // Nested fan-out runs inline on this executor; writes go
            // to the index-owned slot, per the determinism contract.
            pool.parallelFor(0, inner, [&](uint64_t j) {
                out[i] += cell(i, j);
            });
        });
        EXPECT_EQ(out, expected) << "round " << round;
    }
}

/**
 * Concurrent ExecutionContext sharing: several external threads drive
 * parallel work on one shared pool at once (copies of one context,
 * passed by value as the stages do). Every driver must see its own
 * complete, serial-identical result.
 */
TEST(ThreadPoolTest, ConcurrentExecutionContextSharingIsRaceFree)
{
    ExecutionContext shared(4);
    constexpr size_t drivers = 4, n = 2000;

    std::vector<uint64_t> expected(n);
    for (uint64_t i = 0; i < n; ++i)
        expected[i] = i * i + i;

    std::vector<std::vector<uint64_t>> results(drivers);
    std::vector<std::thread> threads;
    for (size_t d = 0; d < drivers; ++d) {
        threads.emplace_back([&, d, context = shared]() mutable {
            results[d] = context.pool().parallelMap<uint64_t>(
                n, [](size_t i) {
                    return static_cast<uint64_t>(i) * i + i;
                });
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (size_t d = 0; d < drivers; ++d)
        EXPECT_EQ(results[d], expected) << "driver " << d;
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(5, 5, [&](uint64_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, NullPoolHelperRunsSerially)
{
    std::vector<int> order;
    parallelFor(nullptr, 2, 6,
                [&](uint64_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5}));
}

} // namespace
} // namespace bp
