#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "src/support/logging.h"
#include "src/support/mutex.h"

namespace bp {

namespace {

/**
 * Worker re-entrancy marker. parallelFor() called from inside a pool
 * worker must not block on the queue it is itself draining; it runs
 * inline instead. A plain thread_local (rather than per-pool state)
 * also covers the pathological case of nested distinct pools.
 */
thread_local bool tl_inside_pool_worker = false;

} // namespace

struct ThreadPool::ForJob
{
    const std::function<void(uint64_t)> *fn;
    uint64_t end;
    uint64_t grain;
    std::atomic<uint64_t> next;
    std::atomic<unsigned> active{0};

    /** Guards the error slot; also the done-waiter's wait lock. */
    Mutex mutex;
    ConditionVariable done;
    std::exception_ptr error BP_GUARDED_BY(mutex);
    uint64_t error_index BP_GUARDED_BY(mutex) = UINT64_MAX;

    /** Drain chunks until the index space is exhausted. */
    void
    drain()
    {
        for (;;) {
            const uint64_t lo = next.fetch_add(grain,
                                               std::memory_order_relaxed);
            if (lo >= end)
                return;
            const uint64_t hi = std::min(end, lo + grain);
            for (uint64_t i = lo; i < hi; ++i) {
                try {
                    (*fn)(i);
                } catch (...) {
                    // Keep the exception thrown at the smallest index
                    // so failure behaviour matches the serial loop,
                    // and stop claiming further chunks. Chunks are
                    // claimed in increasing order, so every index a
                    // cutoff skips is larger than an index that
                    // already ran — the smallest throwing index is
                    // always among the recorded ones.
                    {
                        MutexLock lock(mutex);
                        if (i < error_index) {
                            error_index = i;
                            error = std::current_exception();
                        }
                    }
                    next.store(end, std::memory_order_relaxed);
                    return;
                }
            }
        }
    }

    /** A queued helper: drain, then count itself out. */
    void
    help()
    {
        drain();
        MutexLock lock(mutex);
        if (active.fetch_sub(1, std::memory_order_acq_rel) == 1)
            done.notify_all();
    }
};

unsigned
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    BP_ASSERT(threads <= 1024, "implausible thread count");
    workers_.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    tl_inside_pool_worker = true;
    for (;;) {
        std::shared_ptr<ForJob> job;
        {
            UniqueLock lock(mutex_);
            // Manual predicate loop: the analysis can prove these
            // guarded reads happen under mutex_, which it cannot for
            // a predicate lambda.
            while (!stop_ && queue_.empty())
                wake_.wait(lock);
            if (queue_.empty())
                return;  // stop_ set and queue drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job->help();
    }
}

void
ThreadPool::parallelFor(uint64_t begin, uint64_t end,
                        const std::function<void(uint64_t)> &fn,
                        uint64_t grain)
{
    if (begin >= end)
        return;
    BP_ASSERT(grain >= 1, "grain must be at least 1");

    // Serial fast path: single executor, nested call from a worker,
    // or too little work to be worth dispatching.
    if (workers_.empty() || tl_inside_pool_worker ||
        end - begin <= grain) {
        for (uint64_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->fn = &fn;
    job->end = end;
    job->grain = grain;
    job->next.store(begin, std::memory_order_relaxed);

    // One helper task per worker; each drains chunks until empty.
    const size_t helpers =
        std::min<size_t>(workers_.size(),
                         (end - begin + grain - 1) / grain);
    {
        MutexLock lock(mutex_);
        BP_ASSERT(!stop_, "parallelFor() on a stopped pool");
        for (size_t h = 0; h < helpers; ++h) {
            job->active.fetch_add(1, std::memory_order_relaxed);
            queue_.push_back(job);
        }
    }
    wake_.notify_all();

    // The caller is an executor too. Mark it as inside the pool while
    // it drains so a nested parallelFor issued from fn runs inline
    // instead of enqueueing work behind tasks the blocked caller
    // would then wait on.
    tl_inside_pool_worker = true;
    job->drain();
    tl_inside_pool_worker = false;

    // The index space is exhausted; helpers still queued behind other
    // work (e.g. another caller's parallelFor helpers) would be no-ops
    // — cancel them rather than sleep until they surface.
    {
        MutexLock lock(mutex_);
        const auto cancelled = static_cast<unsigned>(std::erase(queue_, job));
        if (cancelled > 0) {
            MutexLock job_lock(job->mutex);
            job->active.fetch_sub(cancelled, std::memory_order_acq_rel);
        }
    }

    // Wait for helpers still inside their last chunk, then surface
    // any recorded exception. The error slot is read under the same
    // lock it is written under: the post-wait read is ordered by the
    // wait itself, but only the lock makes that discipline checkable,
    // and a future early-exit path would silently turn the unlocked
    // read into a real race. It is moved out, not copied: a helper
    // may still drop the last reference to the job after the wait,
    // and the job must not own the exception the caller is reading.
    std::exception_ptr error;
    {
        UniqueLock lock(job->mutex);
        while (job->active.load(std::memory_order_acquire) != 0)
            job->done.wait(lock);
        error = std::move(job->error);
    }
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(ThreadPool *pool, uint64_t begin, uint64_t end,
            const std::function<void(uint64_t)> &fn, uint64_t grain)
{
    if (pool == nullptr || pool->threadCount() <= 1) {
        for (uint64_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    pool->parallelFor(begin, end, fn, grain);
}

} // namespace bp
