/**
 * @file
 * TraceWriter: record micro-op streams into a `.bptrace` file.
 *
 * One thread drives the writer (the `bp record` loop feeds it region
 * by region), so it keeps one append buffer: append() encodes each
 * record into it in call order, recording is a bump-pointer store on
 * the hot path, and I/O happens in 1 MB sequential chunks.
 * appendRegion() appends each thread's stream whole, in thread order;
 * records of different threads interleave in the file only when they
 * were appended interleaved, and the reader demultiplexes them by tid.
 *
 * endRegion() appends one Barrier marker per thread, flushes the
 * buffer, and records the region's index entry — offset, record
 * count, and an incrementally maintained FNV-1a checksum of the
 * region's bytes. close() refuses a region left open, then writes the
 * region index and its trailer checksum and patches the header with
 * the final region count, index offset, and header checksum. A file
 * that never reached close() keeps its deliberately invalid initial
 * header and is rejected by TraceReader — a crashed recording can
 * never replay as a short-but-valid trace.
 *
 * Concurrency contract (docs/concurrency.md): one recording thread
 * per writer, no locks. Record to distinct files from distinct
 * threads. TraceReader is read-only over an mmap and safe to share
 * once opened.
 */

#ifndef BP_TRACE_IO_TRACE_WRITER_H
#define BP_TRACE_IO_TRACE_WRITER_H

#include <cstdio>
#include <string>
#include <vector>

#include "src/trace/micro_op.h"
#include "src/trace/region_trace.h"
#include "src/trace_io/trace_format.h"

namespace bp {

class TraceWriter
{
  public:
    /**
     * Create/overwrite @p path for @p thread_count threads. Throws
     * TraceError on I/O failure.
     */
    TraceWriter(const std::string &path, unsigned thread_count);

    /** Best-effort close() when none happened; errors are swallowed
     *  (the unpatched header keeps the file rejectable). */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one op of thread @p tid to the current region. */
    void append(unsigned tid, const MicroOp &op);

    /** Emit barrier markers, flush the buffer, index the region. */
    void endRegion();

    /** Convenience: append every thread's stream, then endRegion(). */
    void appendRegion(const RegionTrace &region);

    /**
     * Finalize: write the index + trailer and patch the header.
     * Throws TraceError when any record was appended after the last
     * endRegion(), buffered or already written.
     */
    void close();

    unsigned threadCount() const { return threads_; }
    uint64_t regionCount() const { return index_.size(); }
    /** Records written so far, barrier markers included. */
    uint64_t recordCount() const { return totalRecords_; }
    /** Final file size; valid after close(). */
    uint64_t fileBytes() const { return fileBytes_; }

  private:
    /** Encode @p record into the buffer; flush it when full. */
    void push(const TraceRecord &record);
    /** fwrite the buffer, folding it into the region checksum. */
    void flush();

    std::FILE *file_ = nullptr;
    std::string path_;
    unsigned threads_ = 0;
    std::vector<uint8_t> buffer_;  ///< encoded records, in append order
    std::vector<TraceRegionIndexEntry> index_;
    uint64_t fileOffset_ = kTraceHeaderBytes;
    uint64_t regionStart_ = kTraceHeaderBytes;
    uint64_t regionFnv_ = kFnv1aBasis;
    uint64_t totalRecords_ = 0;
    uint64_t fileBytes_ = 0;
};

} // namespace bp

#endif // BP_TRACE_IO_TRACE_WRITER_H
