/**
 * @file
 * In-memory spans for the traced run.
 *
 * A span is {name, start, end, parent, item} recorded around one call
 * into a layer's public function, from the benchmark's own code. Spans
 * stay in memory until the run ends and are then written as Chrome
 * trace-event JSON ("X" complete events), which Perfetto and
 * chrome://tracing open as a timeline.
 *
 * Parents: a span opened on a thread with an open span of its own
 * nests under it; one opened on a pool worker with none nests under
 * the innermost open span of the driving thread (the stage that
 * fanned the work out). A span's *self time* is its duration minus
 * the part of it covered by its children on the same thread; children
 * on other threads ran concurrently and take nothing away.
 */
#ifndef BPBENCH_SPANS_H
#define BPBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/support/mutex.h"

namespace bpbench {

struct Span
{
    int64_t id = 0;
    int64_t parent = -1;  ///< -1 for a root span
    std::string name;
    int item = -1;        ///< index into SpanRecorder::items(), or -1
    uint32_t tid = 0;     ///< small thread number (0: driving thread)
    double start = 0.0;   ///< seconds since the recorder was created
    double end = 0.0;
    uint64_t work = 0;    ///< units of work done (ops, bytes, points)
};

class SpanRecorder
{
  public:
    /** The constructing thread is the driving thread. */
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Register an item label; @return its index for spans. */
    int addItem(const std::string &label);

    /** Open a span on the calling thread. */
    Span open(const char *name, int item);
    /** Close @p span (opened on this thread), crediting @p work. */
    void close(Span span, uint64_t work);

    /** Completed spans, in completion order (call once done). */
    std::vector<Span> spans() const;
    const std::vector<std::string> &items() const { return items_; }

    /** Write every span as Chrome trace-event JSON to @p path. */
    void writeChromeTrace(const std::filesystem::path &path,
                          const std::map<std::string, std::string> &meta)
        const;

  private:
    double elapsed() const;

    const double origin_;
    std::atomic<int64_t> nextId_{0};
    /** Innermost open span of the driving thread (-1: none). */
    std::atomic<int64_t> ambient_{-1};
    std::vector<std::string> items_;  ///< driving thread only

    mutable bp::Mutex mutex_;
    std::vector<Span> done_ BP_GUARDED_BY(mutex_);
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name, int item = -1)
        : recorder_(recorder)
    {
        if (recorder_)
            span_ = recorder_->open(name, item);
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(std::move(span_), work_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Work units credited to the span when it closes. */
    void addWork(uint64_t units) { work_ += units; }

  private:
    SpanRecorder *recorder_;
    Span span_;
    uint64_t work_ = 0;
};

/** Aggregates over completed spans. */
class SpanIndex
{
  public:
    explicit SpanIndex(std::vector<Span> spans);

    /** Duration minus same-thread child coverage. */
    double selfTime(const Span &span) const;

    /** Sum of selfTime() over spans named @p name. */
    double selfSeconds(const std::string &name) const;
    /** Sum of durations over spans named @p name. */
    double totalSeconds(const std::string &name) const;
    /** Sum of work over spans named @p name. */
    uint64_t totalWork(const std::string &name) const;
    /**
     * Sum of durations of spans named @p name that descend from a
     * span named @p ancestor.
     */
    double totalSecondsUnder(const std::string &name,
                             const std::string &ancestor) const;

  private:
    bool descendsFrom(const Span &span, const std::string &ancestor) const;

    std::vector<Span> spans_;
    std::map<int64_t, size_t> byId_;
    std::map<int64_t, std::vector<size_t>> children_;
};

} // namespace bpbench

#endif // BPBENCH_SPANS_H
