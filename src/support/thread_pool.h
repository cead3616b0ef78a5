/**
 * @file
 * Fixed-size work-scheduling thread pool.
 *
 * The pipeline's parallelism model (and the reason it can be this
 * simple) mirrors the paper's core observation: inter-barrier regions
 * are independent units of work. Every parallel site in the library
 * therefore decomposes into index-addressed tasks whose results are
 * written to disjoint, pre-sized slots — so results are collected in
 * *index order*, never completion order, and output is bit-identical
 * to the serial path for any thread count.
 *
 * Determinism contract for callers:
 *   - task i may only read shared immutable state and write state
 *     owned exclusively by index i;
 *   - floating-point reductions over task results must accumulate in
 *     index order on the calling thread (parallelMap + serial fold).
 *
 * A pool of `threads` executors spawns `threads - 1` workers; the
 * calling thread participates in parallelFor(), so ThreadPool(1) has
 * no workers and runs everything inline — the serial path *is* the
 * threads=1 path. Nested parallelFor() calls from inside a worker,
 * or from the caller while it participates in an outer parallelFor,
 * degrade to inline serial execution instead of deadlocking or
 * stalling on queued work, so composed stages (e.g. a parallel k
 * sweep whose inner assignment step is also parallel) are safe by
 * construction.
 */

#ifndef BP_SUPPORT_THREAD_POOL_H
#define BP_SUPPORT_THREAD_POOL_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/support/mutex.h"
#include "src/support/thread_annotations.h"

namespace bp {

class ThreadPool
{
  public:
    /**
     * @param threads total executor count including the calling
     *                thread (so `threads - 1` workers are spawned);
     *                0 selects the hardware concurrency.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total executors: workers + the participating caller. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /** @return the concurrency the hardware reports (at least 1). */
    static unsigned hardwareThreads();

    /**
     * Run fn(i) for every i in [begin, end) and block until all
     * indices completed. The calling thread executes chunks alongside
     * the workers (and counts as "inside" the pool while it does, so
     * a nested call from fn runs inline on it too).
     *
     * If an invocation throws, no new chunks are claimed (indices in
     * already-claimed chunks still finish) and the exception from the
     * smallest throwing index is rethrown — chunks are claimed in
     * increasing order, so that smallest index is always among the
     * chunks that ran, making the choice deterministic.
     *
     * @param grain indices per dispatched chunk; raise it when fn is
     *              tiny to amortize scheduling overhead
     */
    void parallelFor(uint64_t begin, uint64_t end,
                     const std::function<void(uint64_t)> &fn,
                     uint64_t grain = 1);

    /**
     * Deterministic ordered collection: out[i] = fn(i) with out sized
     * up front, so the result vector is identical to the serial loop
     * regardless of completion order. R must be default-constructible
     * and movable.
     */
    template <typename R>
    std::vector<R>
    parallelMap(size_t n, const std::function<R(size_t)> &fn)
    {
        std::vector<R> out(n);
        parallelFor(0, n, [&](uint64_t i) {
            out[static_cast<size_t>(i)] = fn(static_cast<size_t>(i));
        });
        return out;
    }

  private:
    /** Shared state of one parallelFor invocation. */
    struct ForJob;

    void workerLoop();

    /** Immutable after construction; joined (only) by the destructor. */
    std::vector<std::thread> workers_;

    /** Guards the task queue and the shutdown flag below. */
    mutable Mutex mutex_;
    /** Signalled under mutex_ on new work and on shutdown. */
    ConditionVariable wake_;
    /**
     * One entry per queued parallelFor helper, naming its invocation,
     * so a finished parallelFor can cancel its helpers that never
     * started instead of waiting for them to be popped behind other
     * invocations' helpers.
     */
    std::deque<std::shared_ptr<ForJob>> queue_ BP_GUARDED_BY(mutex_);
    bool stop_ BP_GUARDED_BY(mutex_) = false;
};

/**
 * Helper for "pool is optional" call sites: run fn(i) for i in
 * [begin, end) on @p pool, or serially inline when @p pool is null
 * (or has a single executor, which is the same thing).
 */
void parallelFor(ThreadPool *pool, uint64_t begin, uint64_t end,
                 const std::function<void(uint64_t)> &fn,
                 uint64_t grain = 1);

} // namespace bp

#endif // BP_SUPPORT_THREAD_POOL_H
