/**
 * @file
 * The `.bptrace` on-disk binary memory-trace format.
 *
 * A trace file is a recorded application: the full dynamic
 * micro-operation stream of every inter-barrier region, for every
 * thread, in a layout the replay side can seek into per region. It is
 * the external-workload counterpart of the artifact framing in
 * support/serialize.h and shares its codec — fixed-width little-endian
 * fields through storeLe()/loadLe(), and fnv1aHash() for all three
 * checksums — plus the same discipline: magic/version header, typed
 * errors (TraceError) on every malformed input, never UB or a partial
 * result.
 *
 * File layout (all integers little-endian):
 *
 *   [header, 40 bytes]
 *     u32 magic          "BPTR" (0x52545042)
 *     u32 version        kTraceVersion
 *     u32 threadCount    in [1, kMaxCores]
 *     u32 reserved       must be 0
 *     u64 regionCount    patched on close
 *     u64 indexOffset    byte offset of the region index; patched on
 *                        close (an unfinalized file fails validation)
 *     u64 checksum       FNV-1a over the 32 header bytes above
 *   [records, 16 bytes each, grouped by region in region order]
 *     u64 addr           byte address (0 for Alu and Barrier)
 *     u32 bb             static basic block id (0 for Barrier)
 *     u16 tid            owning thread, < threadCount
 *     u8  kind           0 Alu, 1 Load, 2 Store, 3 Barrier
 *     u8  flags          must be 0 (reserved)
 *   [region index, 24 bytes per region, at indexOffset]
 *     u64 offset         absolute offset of the region's first record
 *     u64 count          record count including barrier markers
 *     u64 checksum       FNV-1a over the region's raw record bytes
 *   [trailer, 8 bytes]
 *     u64 checksum       FNV-1a over the raw index bytes
 *
 * Within a region, records from different threads may interleave
 * (the writer keeps them in the order they were appended), but each
 * thread's own records appear in program order; the region ends with
 * exactly one Barrier marker per thread, in thread order. Every byte
 * of the file is covered by one of the three checksums, so any
 * corruption — header, payload, or index — is detected with a typed
 * error.
 *
 * See docs/trace_format.md for the normative byte-level spec.
 */

#ifndef BP_TRACE_IO_TRACE_FORMAT_H
#define BP_TRACE_IO_TRACE_FORMAT_H

#include <cstddef>
#include <cstdint>

#include "src/support/serialize.h"

namespace bp {

/**
 * Thrown on malformed trace input: truncated files, bad magic or
 * version, checksum mismatches, and record-level violations. Derives
 * from SerializeError so every existing malformed-persistent-data
 * path (the `bp` CLI's exit-1 handler, Experiment's artifact probes)
 * handles trace corruption the same way.
 */
class TraceError : public SerializeError
{
  public:
    using SerializeError::SerializeError;
};

/** "BPTR" as a little-endian u32. */
constexpr uint32_t kTraceMagic = 0x52545042u;

/** Trace format version; bump on any layout change. */
constexpr uint32_t kTraceVersion = 1;

constexpr size_t kTraceHeaderBytes = 40;
constexpr size_t kTraceRecordBytes = 16;
constexpr size_t kTraceIndexEntryBytes = 24;
constexpr size_t kTraceTrailerBytes = 8;

/** Record kind byte. 0..2 mirror OpKind; 3 marks a thread's barrier. */
constexpr uint8_t kTraceKindAlu = 0;
constexpr uint8_t kTraceKindLoad = 1;
constexpr uint8_t kTraceKindStore = 2;
constexpr uint8_t kTraceKindBarrier = 3;

/** One decoded 16-byte trace record. */
struct TraceRecord
{
    uint64_t addr = 0;
    uint32_t bb = 0;
    uint16_t tid = 0;
    uint8_t kind = kTraceKindAlu;
    uint8_t flags = 0;
};

/** One decoded region-index entry. */
struct TraceRegionIndexEntry
{
    uint64_t offset = 0;    ///< absolute offset of the first record
    uint64_t count = 0;     ///< records including barrier markers
    uint64_t checksum = 0;  ///< FNV-1a of the raw record bytes
};

/** The header's variable fields (magic/version/checksum are implied). */
struct TraceHeader
{
    uint32_t threadCount = 0;
    uint64_t regionCount = 0;
    uint64_t indexOffset = 0;
};

/** Encode @p record into kTraceRecordBytes at @p out. */
inline void
encodeTraceRecord(uint8_t *out, const TraceRecord &record)
{
    storeLe(out, record.addr, 8);
    storeLe(out + 8, record.bb, 4);
    storeLe(out + 12, record.tid, 2);
    out[14] = record.kind;
    out[15] = record.flags;
}

/** Decode kTraceRecordBytes at @p in (no validation; see TraceReader). */
inline TraceRecord
decodeTraceRecord(const uint8_t *in)
{
    TraceRecord record;
    record.addr = loadLe(in, 8);
    record.bb = static_cast<uint32_t>(loadLe(in + 8, 4));
    record.tid = static_cast<uint16_t>(loadLe(in + 12, 2));
    record.kind = in[14];
    record.flags = in[15];
    return record;
}

/** Encode a finalized header (computes the header checksum). */
void encodeTraceHeader(uint8_t *out, const TraceHeader &header);

/**
 * Decode and validate kTraceHeaderBytes at @p in: magic, version,
 * checksum, reserved field, and thread count range. Throws TraceError
 * naming the failing check; @p path labels the message.
 */
TraceHeader decodeTraceHeader(const uint8_t *in, const std::string &path);

} // namespace bp

#endif // BP_TRACE_IO_TRACE_FORMAT_H
