#include "src/trace_io/trace_format.h"

#include "src/support/core_set.h"

namespace bp {

void
encodeTraceHeader(uint8_t *out, const TraceHeader &header)
{
    storeLe(out, kTraceMagic, 4);
    storeLe(out + 4, kTraceVersion, 4);
    storeLe(out + 8, header.threadCount, 4);
    storeLe(out + 12, 0, 4);  // reserved
    storeLe(out + 16, header.regionCount, 8);
    storeLe(out + 24, header.indexOffset, 8);
    storeLe(out + 32, fnv1aHash(out, 32), 8);
}

TraceHeader
decodeTraceHeader(const uint8_t *in, const std::string &path)
{
    if (loadLe(in, 4) != kTraceMagic)
        throw TraceError("'" + path + "' is not a bptrace file (bad magic)");
    const uint64_t version = loadLe(in + 4, 4);
    if (version != kTraceVersion)
        throw TraceError("'" + path + "' has unsupported trace version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kTraceVersion) + ")");
    if (loadLe(in + 32, 8) != fnv1aHash(in, 32))
        throw TraceError("'" + path +
                         "' has a corrupt or unfinalized trace header "
                         "(checksum mismatch)");
    if (loadLe(in + 12, 4) != 0)
        throw TraceError("'" + path +
                         "' sets reserved trace header bits this build "
                         "does not understand");
    TraceHeader header;
    header.threadCount = static_cast<uint32_t>(loadLe(in + 8, 4));
    header.regionCount = loadLe(in + 16, 8);
    header.indexOffset = loadLe(in + 24, 8);
    if (header.threadCount < 1 || header.threadCount > kMaxCores)
        throw TraceError("'" + path + "' declares " +
                         std::to_string(header.threadCount) +
                         " threads; supported range is [1, " +
                         std::to_string(kMaxCores) + "]");
    return header;
}

} // namespace bp
