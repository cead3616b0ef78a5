#include "src/trace_io/trace_workload.h"

namespace bp {

namespace {

WorkloadParams
traceParams(const TraceReader &reader)
{
    // Canonical parameters: threads are a property of the file, and
    // scale/seed do not apply to a recorded stream. Pinning them keeps
    // WorkloadSpec::describe() a pure function of the trace, so two
    // opens of the same file always hash identically.
    WorkloadParams params;
    params.threads = reader.threadCount();
    params.scale = 1.0;
    params.seed = 0;
    return params;
}

} // namespace

TraceWorkload::TraceWorkload(std::unique_ptr<TraceReader> reader,
                             std::string name)
    : Workload(std::move(name), traceParams(*reader)),
      reader_(std::move(reader))
{}

unsigned
TraceWorkload::regionCount() const
{
    return static_cast<unsigned>(reader_->regionCount());
}

RegionTrace
TraceWorkload::generateRegion(unsigned index) const
{
    requireRegion(index);
    return reader_->readRegion(index);
}

uint64_t
TraceWorkload::contentHash() const
{
    return reader_->contentHash();
}

std::unique_ptr<Workload>
makeTraceWorkload(const std::string &path)
{
    auto reader = std::make_unique<TraceReader>(path);
    if (reader->regionCount() == 0)
        throw TraceError("'" + path + "' holds no regions; an empty "
                         "trace cannot be replayed as a workload");
    return std::unique_ptr<Workload>(
        new TraceWorkload(std::move(reader), "trace:" + path));
}

} // namespace bp
