#include "src/trace_io/trace_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <limits>

#include "src/support/logging.h"

namespace bp {

namespace {

/** Overflow-checked a + b; throws TraceError mentioning @p path. */
uint64_t
checkedAdd(uint64_t a, uint64_t b, const std::string &path)
{
    if (a > std::numeric_limits<uint64_t>::max() - b)
        throw TraceError("'" + path + "' has a trace index whose offsets "
                         "overflow (corrupt index)");
    return a + b;
}

} // namespace

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceError("cannot open trace file '" + path + "'");
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw TraceError("cannot stat trace file '" + path + "'");
    }
    size_ = static_cast<uint64_t>(st.st_size);
    if (size_ < kTraceHeaderBytes + kTraceTrailerBytes) {
        ::close(fd);
        throw TraceError("'" + path + "' is truncated: " +
                         std::to_string(size_) +
                         " bytes is too small to be a bptrace file");
    }
    void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (map == MAP_FAILED)
        throw TraceError("cannot mmap trace file '" + path + "'");
    data_ = static_cast<const uint8_t *>(map);

    try {
        header_ = decodeTraceHeader(data_, path);

        // RegionTrace carries a uint32_t region index; a count beyond
        // that cannot have been produced by TraceWriter anyway.
        if (header_.regionCount >
            std::numeric_limits<uint32_t>::max())
            throw TraceError("'" + path + "' declares an implausible " +
                             std::to_string(header_.regionCount) +
                             " regions");

        // Exact size accounting: records fill [header, indexOffset),
        // then the index and trailer must end the file to the byte.
        // Any truncation or extension breaks this equation.
        if (header_.indexOffset < kTraceHeaderBytes ||
            (header_.indexOffset - kTraceHeaderBytes) % kTraceRecordBytes
                != 0)
            throw TraceError("'" + path +
                             "' has a misaligned trace index offset");
        // regionCount is already bounded by uint32 max, so the index
        // size arithmetic below cannot overflow.
        const uint64_t expected = checkedAdd(
            header_.indexOffset,
            header_.regionCount * kTraceIndexEntryBytes +
                kTraceTrailerBytes,
            path);
        if (size_ != expected)
            throw TraceError(
                "'" + path + "' is truncated or has trailing garbage: " +
                std::to_string(size_) + " bytes on disk, " +
                std::to_string(expected) + " implied by the header");

        // The index trailer checksum covers every index byte, so a
        // flipped offset/count/checksum in any entry is caught here.
        const uint8_t *index_bytes = data_ + header_.indexOffset;
        const uint64_t index_size =
            header_.regionCount * kTraceIndexEntryBytes;
        if (loadLe(index_bytes + index_size, 8) !=
            fnv1aHash(index_bytes, index_size))
            throw TraceError("'" + path +
                             "' has a corrupt trace region index "
                             "(trailer checksum mismatch)");

        // Structural check: region extents must tile the record
        // section exactly, in order, with room for each region's
        // per-thread barrier markers.
        index_.reserve(header_.regionCount);
        uint64_t cursor = kTraceHeaderBytes;
        for (uint64_t i = 0; i < header_.regionCount; ++i) {
            TraceRegionIndexEntry entry;
            const uint8_t *raw = index_bytes + i * kTraceIndexEntryBytes;
            entry.offset = loadLe(raw, 8);
            entry.count = loadLe(raw + 8, 8);
            entry.checksum = loadLe(raw + 16, 8);
            if (entry.offset != cursor)
                throw TraceError("'" + path + "' trace region " +
                                 std::to_string(i) +
                                 " does not start where region " +
                                 (i ? std::to_string(i - 1) + " ends"
                                    : std::string("the header ends")));
            if (entry.count < header_.threadCount)
                throw TraceError("'" + path + "' trace region " +
                                 std::to_string(i) + " holds " +
                                 std::to_string(entry.count) +
                                 " records, fewer than its " +
                                 std::to_string(header_.threadCount) +
                                 " barrier markers");
            if (entry.count >
                std::numeric_limits<uint64_t>::max() / kTraceRecordBytes)
                throw TraceError("'" + path + "' trace region " +
                                 std::to_string(i) +
                                 " extends past the region index");
            cursor = checkedAdd(cursor, entry.count * kTraceRecordBytes,
                                path);
            if (cursor > header_.indexOffset)
                throw TraceError("'" + path + "' trace region " +
                                 std::to_string(i) +
                                 " extends past the region index");
            recordCount_ += entry.count;
            index_.push_back(entry);
        }
        if (cursor != header_.indexOffset)
            throw TraceError("'" + path + "' trace regions do not cover "
                             "the record section (gap before the index)");

        // Header + index (which embeds every region's payload
        // checksum) pin down the whole file's content.
        contentHash_ = fnv1aHash(data_, kTraceHeaderBytes);
        contentHash_ = fnv1aHash(index_bytes,
                                 index_size + kTraceTrailerBytes,
                                 contentHash_);
    } catch (...) {
        ::munmap(const_cast<uint8_t *>(data_), size_);
        data_ = nullptr;
        throw;
    }
}

TraceReader::~TraceReader()
{
    if (data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
}

void
TraceReader::scanRegion(uint64_t index,
                        std::vector<uint64_t> *ops_per_thread) const
{
    BP_ASSERT(index < index_.size(), "trace region index out of range");
    const TraceRegionIndexEntry &entry = index_[index];
    const uint8_t *bytes = data_ + entry.offset;
    const uint64_t size = entry.count * kTraceRecordBytes;
    if (fnv1aHash(bytes, size) != entry.checksum)
        throw TraceError("'" + path_ + "' trace region " +
                         std::to_string(index) +
                         " is corrupt (payload checksum mismatch)");

    // Structure: every record well-formed, and each thread's stream
    // terminated by exactly one barrier marker with nothing after it.
    std::vector<bool> barrier_seen(header_.threadCount, false);
    for (uint64_t r = 0; r < entry.count; ++r) {
        const TraceRecord record =
            decodeTraceRecord(bytes + r * kTraceRecordBytes);
        // Formatted only on the throw path: this loop runs per record.
        const auto where = [&] {
            return "'" + path_ + "' trace region " + std::to_string(index) +
                " record " + std::to_string(r);
        };
        if (record.flags != 0)
            throw TraceError(where() + " sets reserved flag bits");
        if (record.kind > kTraceKindBarrier)
            throw TraceError(where() + " has unknown kind " +
                             std::to_string(record.kind));
        if (record.tid >= header_.threadCount)
            throw TraceError(where() + " names thread " +
                             std::to_string(record.tid) +
                             " but the trace has " +
                             std::to_string(header_.threadCount));
        if (barrier_seen[record.tid])
            throw TraceError(where() + " follows thread " +
                             std::to_string(record.tid) +
                             "'s barrier marker");
        if (record.kind == kTraceKindBarrier) {
            if (record.addr != 0 || record.bb != 0)
                throw TraceError(where() +
                                 " is a barrier marker with nonzero "
                                 "payload fields");
            barrier_seen[record.tid] = true;
        } else {
            if (record.kind == kTraceKindAlu && record.addr != 0)
                throw TraceError(where() +
                                 " is an Alu record with a nonzero "
                                 "address");
            if (ops_per_thread)
                ++(*ops_per_thread)[record.tid];
        }
    }
    for (unsigned tid = 0; tid < header_.threadCount; ++tid) {
        if (!barrier_seen[tid])
            throw TraceError("'" + path_ + "' trace region " +
                             std::to_string(index) +
                             " has no barrier marker for thread " +
                             std::to_string(tid));
    }
}

RegionTrace
TraceReader::readRegion(uint64_t index) const
{
    std::vector<uint64_t> ops_per_thread(header_.threadCount, 0);
    scanRegion(index, &ops_per_thread);

    RegionTrace region(static_cast<uint32_t>(index), header_.threadCount);
    for (unsigned tid = 0; tid < header_.threadCount; ++tid)
        region.thread(tid).reserve(ops_per_thread[tid]);

    const TraceRegionIndexEntry &entry = index_[index];
    const uint8_t *bytes = data_ + entry.offset;
    for (uint64_t r = 0; r < entry.count; ++r) {
        const TraceRecord record =
            decodeTraceRecord(bytes + r * kTraceRecordBytes);
        if (record.kind == kTraceKindBarrier)
            continue;
        MicroOp op;
        op.addr = record.addr;
        op.bb = record.bb;
        op.kind = static_cast<OpKind>(record.kind);
        region.thread(record.tid).push_back(op);
    }
    return region;
}

void
TraceReader::verifyRegion(uint64_t index) const
{
    scanRegion(index, nullptr);
}

void
TraceReader::verifyAll() const
{
    for (uint64_t i = 0; i < index_.size(); ++i)
        verifyRegion(i);
}

} // namespace bp
