#include "src/trace_io/trace_writer.h"

#include "src/support/core_set.h"
#include "src/support/logging.h"

namespace bp {

namespace {

/** Append-buffer capacity: a whole number of records. */
constexpr size_t kBufferBytes = size_t{1} << 20;
static_assert(kBufferBytes % kTraceRecordBytes == 0);

} // namespace

TraceWriter::TraceWriter(const std::string &path, unsigned thread_count)
    : path_(path), threads_(thread_count)
{
    if (threads_ < 1 || threads_ > kMaxCores)
        throw TraceError("trace thread count must be in [1, " +
                         std::to_string(kMaxCores) + "], got " +
                         std::to_string(threads_));
    buffer_.reserve(kBufferBytes);

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
TraceWriter::flush()
{
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size())
        throw TraceError("short write to trace file '" + path_ + "'");
    regionFnv_ = fnv1aHash(buffer_.data(), buffer_.size(), regionFnv_);
    fileOffset_ += buffer_.size();
    buffer_.clear();
}

void
TraceWriter::push(const TraceRecord &record)
{
    const size_t at = buffer_.size();
    buffer_.resize(at + kTraceRecordBytes);
    encodeTraceRecord(buffer_.data() + at, record);
    ++totalRecords_;
    if (buffer_.size() == kBufferBytes)
        flush();
}

void
TraceWriter::append(unsigned tid, const MicroOp &op)
{
    BP_ASSERT(file_, "append() on a closed TraceWriter");
    BP_ASSERT(tid < threads_, "trace record tid out of range");
    TraceRecord record;
    record.addr = op.addr;
    record.bb = op.bb;
    record.tid = static_cast<uint16_t>(tid);
    record.kind = static_cast<uint8_t>(op.kind);
    push(record);
}

void
TraceWriter::endRegion()
{
    BP_ASSERT(file_, "endRegion() on a closed TraceWriter");
    // One barrier marker per thread, in thread order, closes the
    // region: the reader checks for exactly this trailer.
    for (unsigned tid = 0; tid < threads_; ++tid) {
        TraceRecord barrier;
        barrier.tid = static_cast<uint16_t>(tid);
        barrier.kind = kTraceKindBarrier;
        push(barrier);
    }
    flush();
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
    // Any record since the last endRegion(), buffered or already
    // written, leaves the region open.
    if (fileOffset_ + buffer_.size() != regionStart_) {
        std::fclose(file);
        throw TraceError("close() with an open region on trace '" + path_ +
                         "' (call endRegion() first)");
    }

    const uint64_t index_offset = fileOffset_;
    uint64_t index_fnv = kFnv1aBasis;
    bool ok = true;
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
