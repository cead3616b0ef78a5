/**
 * @file
 * TraceWriter: record micro-op streams into a `.bptrace` file.
 *
 * Modelled on COREMU's memtrace logger (cm-memtrace.c): each thread
 * owns an append buffer of encoded records that is flushed to the
 * file when it fills, so recording is a bump-pointer store on the hot
 * path and I/O happens in large sequential chunks. Unlike COREMU the
 * writer is driven by one recording thread (the `bp record` loop
 * feeds it region by region), so flushes need no synchronization; the
 * per-thread buffers exist for batching and to exercise the
 * interleaved-chunk framing the reader must demultiplex.
 *
 * endRegion() flushes every buffer (in thread order), appends one
 * Barrier marker per thread, and records the region's index entry —
 * offset, record count, and an incrementally maintained FNV-1a
 * checksum of the region's bytes. close() writes the region index and
 * its trailer checksum, then patches the header with the final region
 * count, index offset, and header checksum. A file that never reached
 * close() keeps its deliberately invalid initial header and is
 * rejected by TraceReader — a crashed recording can never replay as a
 * short-but-valid trace.
 *
 * Concurrency contract (docs/concurrency.md): one recording thread
 * per writer, no locks; the per-thread buffers batch per *simulated*
 * thread. Record to distinct files from distinct threads. TraceReader
 * is read-only over an mmap and safe to share once opened.
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
    /** Per-thread append-buffer capacity when none is given (1 MB). */
    static constexpr size_t kDefaultBufferBytes = 1 << 20;

    /**
     * Create/overwrite @p path for @p thread_count threads. Each
     * thread's append buffer holds @p buffer_bytes of encoded records
     * (at least one record). Throws TraceError on I/O failure.
     */
    TraceWriter(const std::string &path, unsigned thread_count,
                size_t buffer_bytes = kDefaultBufferBytes);

    /** Best-effort close() when none happened; errors are swallowed
     *  (the unpatched header keeps the file rejectable). */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one op of thread @p tid to the current region. */
    void append(unsigned tid, const MicroOp &op);

    /** Flush all buffers, emit barrier markers, index the region. */
    void endRegion();

    /** Convenience: append every thread's stream, then endRegion(). */
    void appendRegion(const RegionTrace &region);

    /** Finalize: write the index + trailer and patch the header. */
    void close();

    unsigned threadCount() const { return threads_; }
    uint64_t regionCount() const { return index_.size(); }
    /** Records written so far, barrier markers included. */
    uint64_t recordCount() const { return totalRecords_; }
    /** Final file size; valid after close(). */
    uint64_t fileBytes() const { return fileBytes_; }

  private:
    void flushThread(unsigned tid);
    /** fwrite @p bytes, folding them into the region checksum. */
    void writeRecordBytes(const uint8_t *bytes, size_t size);

    std::FILE *file_ = nullptr;
    std::string path_;
    unsigned threads_ = 0;
    size_t capacityBytes_ = 0;
    std::vector<std::vector<uint8_t>> buffers_;  ///< encoded records
    std::vector<TraceRegionIndexEntry> index_;
    uint64_t fileOffset_ = kTraceHeaderBytes;
    uint64_t regionStart_ = kTraceHeaderBytes;
    uint64_t regionFnv_ = kFnv1aBasis;
    uint64_t totalRecords_ = 0;
    uint64_t fileBytes_ = 0;
};

} // namespace bp

#endif // BP_TRACE_IO_TRACE_WRITER_H
