/**
 * @file
 * The byte codec and checksum of every file the pipeline writes, and
 * the versioned binary (de)serialization of on-disk artifacts.
 *
 * storeLe()/loadLe() and fnv1aHash() are the only places the program
 * spells its byte order and its checksum: the artifact framing below
 * and the `.bptrace` trace format (trace_io/trace_format.h) both go
 * through them, so the two formats cannot drift apart.
 *
 * The byte format is endian-stable (everything is written as
 * little-endian byte sequences regardless of host order), integers
 * are fixed-width, doubles travel as their IEEE-754 bit image (so a
 * save/load round trip is bit-exact), and variable-length data is
 * length-prefixed. Files are framed with a magic/version/kind header
 * plus an FNV-1a checksum of the payload; every read is
 * bounds-checked. Malformed input surfaces as SerializeError — never
 * as undefined behaviour or a partial struct.
 */

#ifndef BP_SUPPORT_SERIALIZE_H
#define BP_SUPPORT_SERIALIZE_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bp {

/** Thrown on truncated, corrupted, or mismatched artifact data. */
class SerializeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** On-disk artifact format version; bump on any layout change. */
constexpr uint32_t kArtifactVersion = 4;

/** Store the low @p bytes bytes of @p v at @p out, least significant first. */
inline void
storeLe(uint8_t *out, uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Load @p bytes little-endian bytes at @p in. */
inline uint64_t
loadLe(const uint8_t *in, unsigned bytes)
{
    uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<uint64_t>(in[i]) << (8 * i);
    return v;
}

/** The 64-bit FNV-1a offset basis: the hash of zero bytes. */
constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * 64-bit FNV-1a of @p size bytes at @p data, the checksum of every
 * file format. Pass a previous result as @p hash to continue it over
 * more bytes.
 */
inline uint64_t
fnv1aHash(const uint8_t *data, size_t size, uint64_t hash = kFnv1aBasis)
{
    for (size_t i = 0; i < size; ++i)
        hash = (hash ^ data[i]) * 0x100000001b3ull;
    return hash;
}

/** Append-only little-endian byte sink. */
class Serializer
{
  public:
    void u8(uint8_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    /** Bit-exact: writes the IEEE-754 image of @p v. */
    void f64(double v);
    void boolean(bool v);
    /** Length-prefixed byte string. */
    void str(const std::string &v);
    /** Element count prefix (u64). */
    void size(size_t n);

    void u32vec(const std::vector<unsigned> &v);
    void u64vec(const std::vector<uint64_t> &v);
    void f64vec(const std::vector<double> &v);

    const std::vector<uint8_t> &buffer() const { return buffer_; }

  private:
    std::vector<uint8_t> buffer_;
};

/** Bounds-checked reader over a byte buffer; throws SerializeError. */
class Deserializer
{
  public:
    explicit Deserializer(std::vector<uint8_t> bytes);

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    double f64();
    bool boolean();
    std::string str();

    /**
     * Read an element count and sanity-check it against the bytes
     * actually remaining (>= @p min_elem_bytes each, the fewest bytes
     * one element encodes to), so a corrupted length cannot drive an
     * allocation larger than the payload itself.
     */
    size_t size(size_t min_elem_bytes);

    std::vector<unsigned> u32vec();
    std::vector<uint64_t> u64vec();
    std::vector<double> f64vec();

    size_t remaining() const { return bytes_.size() - pos_; }

    /** Throw unless every byte has been consumed. */
    void expectEnd() const;

  private:
    const uint8_t *need(size_t n);

    std::vector<uint8_t> bytes_;
    size_t pos_ = 0;
};

/** @return true when @p path names a readable file (artifact probe). */
bool fileExists(const std::string &path);

/**
 * Frame @p payload with the artifact header (magic, version, kind,
 * payload length, checksum) and write it to @p path atomically-ish
 * (write then flush; throws SerializeError on any I/O failure).
 */
void writeArtifactFile(const std::string &path, uint32_t kind,
                       const Serializer &payload);

/**
 * Read @p path, validate the header against @p kind and the checksum,
 * and return a Deserializer positioned at the start of the payload.
 */
Deserializer readArtifactFile(const std::string &path, uint32_t kind);

/**
 * The kind field of @p path's artifact header, unvalidated: a dispatch
 * hint for callers that accept any kind, whose loader then validates
 * the whole file. Throws SerializeError when the file cannot be read
 * or is shorter than a header.
 */
uint32_t readArtifactKind(const std::string &path);

} // namespace bp

#endif // BP_SUPPORT_SERIALIZE_H
