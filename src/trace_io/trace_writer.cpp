#include "src/trace_io/trace_writer.h"

#include <algorithm>

#include "src/support/core_set.h"
#include "src/support/logging.h"

namespace bp {

TraceWriter::TraceWriter(const std::string &path, unsigned thread_count,
                         size_t buffer_bytes)
    : path_(path), threads_(thread_count)
{
    if (threads_ < 1 || threads_ > kMaxCores)
        throw TraceError("trace thread count must be in [1, " +
                         std::to_string(kMaxCores) + "], got " +
                         std::to_string(threads_));
    capacityBytes_ = std::max(buffer_bytes, kTraceRecordBytes);
    capacityBytes_ -= capacityBytes_ % kTraceRecordBytes;
    buffers_.resize(threads_);
    for (auto &buffer : buffers_)
        buffer.reserve(capacityBytes_);

    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw TraceError("cannot create trace file '" + path + "'");
    // Provisional header: real magic/version/threads so a reader's
    // message is about finalization, but a zeroed checksum field, so
    // a file that never reaches close() can never validate.
    uint8_t header[kTraceHeaderBytes];
    encodeTraceHeader(header, {threads_, 0, 0});
    storeLe(header + 32, 0, 8);
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("cannot write trace header to '" + path + "'");
    }
}

TraceWriter::~TraceWriter()
{
    if (!file_)
        return;
    try {
        close();
    } catch (const TraceError &) {
        // Best effort only: the header stays unpatched, so a reader
        // rejects the file instead of replaying a partial trace.
    }
}

void
TraceWriter::writeRecordBytes(const uint8_t *bytes, size_t size)
{
    if (std::fwrite(bytes, 1, size, file_) != size)
        throw TraceError("short write to trace file '" + path_ + "'");
    regionFnv_ = fnv1aHash(bytes, size, regionFnv_);
    fileOffset_ += size;
}

void
TraceWriter::flushThread(unsigned tid)
{
    std::vector<uint8_t> &buffer = buffers_[tid];
    if (buffer.empty())
        return;
    writeRecordBytes(buffer.data(), buffer.size());
    buffer.clear();
}

void
TraceWriter::append(unsigned tid, const MicroOp &op)
{
    BP_ASSERT(file_, "append() on a closed TraceWriter");
    BP_ASSERT(tid < threads_, "trace record tid out of range");
    std::vector<uint8_t> &buffer = buffers_[tid];
    TraceRecord record;
    record.addr = op.addr;
    record.bb = op.bb;
    record.tid = static_cast<uint16_t>(tid);
    record.kind = static_cast<uint8_t>(op.kind);
    const size_t at = buffer.size();
    buffer.resize(at + kTraceRecordBytes);
    encodeTraceRecord(buffer.data() + at, record);
    ++totalRecords_;
    if (buffer.size() >= capacityBytes_)
        flushThread(tid);
}

void
TraceWriter::endRegion()
{
    BP_ASSERT(file_, "endRegion() on a closed TraceWriter");
    for (unsigned tid = 0; tid < threads_; ++tid)
        flushThread(tid);
    // One barrier marker per thread, in thread order, closes the
    // region: the reader checks for exactly this trailer.
    for (unsigned tid = 0; tid < threads_; ++tid) {
        TraceRecord barrier;
        barrier.tid = static_cast<uint16_t>(tid);
        barrier.kind = kTraceKindBarrier;
        uint8_t bytes[kTraceRecordBytes];
        encodeTraceRecord(bytes, barrier);
        writeRecordBytes(bytes, sizeof(bytes));
        ++totalRecords_;
    }
    TraceRegionIndexEntry entry;
    entry.offset = regionStart_;
    entry.count = (fileOffset_ - regionStart_) / kTraceRecordBytes;
    entry.checksum = regionFnv_;
    index_.push_back(entry);
    regionStart_ = fileOffset_;
    regionFnv_ = kFnv1aBasis;
}

void
TraceWriter::appendRegion(const RegionTrace &region)
{
    BP_ASSERT(region.threadCount() == threads_,
              "region thread count differs from the trace's");
    for (unsigned tid = 0; tid < threads_; ++tid) {
        for (const MicroOp &op : region.thread(tid))
            append(tid, op);
    }
    endRegion();
}

void
TraceWriter::close()
{
    if (!file_)
        return;
    std::FILE *file = file_;
    file_ = nullptr;
    bool ok = true;
    for (unsigned tid = 0; tid < threads_ && ok; ++tid)
        ok = buffers_[tid].empty();
    if (!ok) {
        std::fclose(file);
        throw TraceError("close() with an open region on trace '" + path_ +
                         "' (call endRegion() first)");
    }

    const uint64_t index_offset = fileOffset_;
    uint64_t index_fnv = kFnv1aBasis;
    for (const TraceRegionIndexEntry &entry : index_) {
        uint8_t bytes[kTraceIndexEntryBytes];
        storeLe(bytes, entry.offset, 8);
        storeLe(bytes + 8, entry.count, 8);
        storeLe(bytes + 16, entry.checksum, 8);
        index_fnv = fnv1aHash(bytes, sizeof(bytes), index_fnv);
        ok = ok && std::fwrite(bytes, 1, sizeof(bytes), file) ==
                       sizeof(bytes);
    }
    uint8_t trailer[kTraceTrailerBytes];
    storeLe(trailer, index_fnv, 8);
    ok = ok && std::fwrite(trailer, 1, sizeof(trailer), file) ==
                   sizeof(trailer);

    uint8_t header[kTraceHeaderBytes];
    encodeTraceHeader(header, {threads_, index_.size(), index_offset});
    ok = ok && std::fseek(file, 0, SEEK_SET) == 0 &&
         std::fwrite(header, 1, sizeof(header), file) == sizeof(header) &&
         std::fflush(file) == 0;
    if (std::fclose(file) != 0 || !ok)
        throw TraceError("cannot finalize trace file '" + path_ + "'");
    fileBytes_ = index_offset +
                 index_.size() * kTraceIndexEntryBytes + kTraceTrailerBytes;
}

} // namespace bp
