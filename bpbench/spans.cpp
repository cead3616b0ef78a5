#include "spans.h"

#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace bpbench {

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<int64_t> t_open;

std::atomic<uint32_t> g_nextThread{0};
thread_local uint32_t t_thread = UINT32_MAX;

uint32_t
threadNumber()
{
    if (t_thread == UINT32_MAX)
        t_thread = g_nextThread.fetch_add(1);
    return t_thread;
}

std::thread::id g_drivingThread;

/** JSON string literal (names and labels are plain ASCII). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

SpanRecorder::SpanRecorder() : origin_(now())
{
    g_drivingThread = std::this_thread::get_id();
    threadNumber();
}

double
SpanRecorder::elapsed() const
{
    return now() - origin_;
}

int
SpanRecorder::addItem(const std::string &label)
{
    items_.push_back(label);
    return static_cast<int>(items_.size()) - 1;
}

Span
SpanRecorder::open(const char *name, int item)
{
    Span span;
    span.id = nextId_.fetch_add(1);
    span.parent = t_open.empty() ? ambient_.load() : t_open.back();
    span.name = name;
    span.item = item;
    span.tid = threadNumber();
    t_open.push_back(span.id);
    if (std::this_thread::get_id() == g_drivingThread)
        ambient_.store(span.id);
    span.start = elapsed();
    return span;
}

void
SpanRecorder::close(Span span, uint64_t work)
{
    span.end = elapsed();
    span.work = work;
    if (t_open.empty() || t_open.back() != span.id)
        throw std::logic_error("spans must close innermost first");
    t_open.pop_back();
    if (std::this_thread::get_id() == g_drivingThread)
        ambient_.store(t_open.empty() ? -1 : t_open.back());
    bp::MutexLock lock(mutex_);
    done_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    bp::MutexLock lock(mutex_);
    return done_;
}

void
SpanRecorder::writeChromeTrace(
    const std::filesystem::path &path,
    const std::map<std::string, std::string> &meta) const
{
    std::filesystem::create_directories(path.parent_path());
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    const char *sep = "";
    for (const auto &[key, value] : meta) {
        std::fprintf(out, "%s%s: %s", sep, quoted(key).c_str(),
                     quoted(value).c_str());
        sep = ", ";
    }
    std::fprintf(out, "},\n\"traceEvents\": [\n");
    sep = "";
    for (const Span &span : spans()) {
        const std::string item =
            span.item >= 0 ? items_.at(span.item) : std::string();
        const std::string layer = span.name.substr(0, span.name.find('.'));
        std::fprintf(out,
                     "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %lld, \"parent\": %lld, "
                     "\"item\": %s, \"work\": %llu}}",
                     sep, quoted(span.name).c_str(), quoted(layer).c_str(),
                     span.tid, span.start * 1e6,
                     (span.end - span.start) * 1e6,
                     static_cast<long long>(span.id),
                     static_cast<long long>(span.parent),
                     quoted(item).c_str(),
                     static_cast<unsigned long long>(span.work));
        sep = ",\n";
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0)
        throw std::runtime_error("cannot write " + path.string());
}

SpanIndex::SpanIndex(std::vector<Span> spans) : spans_(std::move(spans))
{
    for (size_t i = 0; i < spans_.size(); ++i) {
        byId_[spans_[i].id] = i;
        children_[spans_[i].parent].push_back(i);
    }
}

double
SpanIndex::selfTime(const Span &span) const
{
    // Children on the span's own thread ran inside it one after
    // another, so their durations add up without overlap.
    double self = span.end - span.start;
    const auto it = children_.find(span.id);
    if (it != children_.end()) {
        for (const size_t c : it->second) {
            if (spans_[c].tid == span.tid)
                self -= spans_[c].end - spans_[c].start;
        }
    }
    return self;
}

double
SpanIndex::selfSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += selfTime(span);
    return total;
}

double
SpanIndex::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += span.end - span.start;
    return total;
}

uint64_t
SpanIndex::totalWork(const std::string &name) const
{
    uint64_t total = 0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += span.work;
    return total;
}

bool
SpanIndex::descendsFrom(const Span &span, const std::string &ancestor) const
{
    int64_t parent = span.parent;
    while (parent >= 0) {
        const Span &p = spans_[byId_.at(parent)];
        if (p.name == ancestor)
            return true;
        parent = p.parent;
    }
    return false;
}

double
SpanIndex::totalSecondsUnder(const std::string &name,
                             const std::string &ancestor) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (span.name == name && descendsFrom(span, ancestor))
            total += span.end - span.start;
    return total;
}

} // namespace bpbench
