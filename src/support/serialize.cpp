#include "src/support/serialize.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>

namespace bp {

namespace {

// "BPARTFCT" as little-endian u64.
constexpr uint64_t kMagic = 0x544346'5452415042ull;

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

void
appendLe(std::vector<uint8_t> &out, uint64_t v, unsigned bytes)
{
    out.resize(out.size() + bytes);
    storeLe(out.data() + out.size() - bytes, v, bytes);
}

} // namespace

void
Serializer::u8(uint8_t v)
{
    buffer_.push_back(v);
}

void
Serializer::u32(uint32_t v)
{
    appendLe(buffer_, v, 4);
}

void
Serializer::u64(uint64_t v)
{
    appendLe(buffer_, v, 8);
}

void
Serializer::f64(double v)
{
    appendLe(buffer_, std::bit_cast<uint64_t>(v), 8);
}

void
Serializer::boolean(bool v)
{
    buffer_.push_back(v ? 1 : 0);
}

void
Serializer::str(const std::string &v)
{
    size(v.size());
    buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void
Serializer::size(size_t n)
{
    u64(static_cast<uint64_t>(n));
}

void
Serializer::u32vec(const std::vector<unsigned> &v)
{
    size(v.size());
    for (const unsigned x : v)
        u32(static_cast<uint32_t>(x));
}

void
Serializer::u64vec(const std::vector<uint64_t> &v)
{
    size(v.size());
    for (const uint64_t x : v)
        u64(x);
}

void
Serializer::f64vec(const std::vector<double> &v)
{
    size(v.size());
    for (const double x : v)
        f64(x);
}

Deserializer::Deserializer(std::vector<uint8_t> bytes)
    : bytes_(std::move(bytes))
{
}

const uint8_t *
Deserializer::need(size_t n)
{
    if (n > remaining())
        throw SerializeError("truncated artifact: wanted " +
                             std::to_string(n) + " bytes, " +
                             std::to_string(remaining()) + " left");
    const uint8_t *p = bytes_.data() + pos_;
    pos_ += n;
    return p;
}

uint8_t
Deserializer::u8()
{
    return *need(1);
}

uint32_t
Deserializer::u32()
{
    return static_cast<uint32_t>(loadLe(need(4), 4));
}

uint64_t
Deserializer::u64()
{
    return loadLe(need(8), 8);
}

double
Deserializer::f64()
{
    return std::bit_cast<double>(loadLe(need(8), 8));
}

bool
Deserializer::boolean()
{
    const uint8_t v = *need(1);
    if (v > 1)
        throw SerializeError("corrupt boolean value");
    return v != 0;
}

std::string
Deserializer::str()
{
    const size_t n = size(1);
    const uint8_t *p = need(n);
    return std::string(reinterpret_cast<const char *>(p), n);
}

size_t
Deserializer::size(size_t min_elem_bytes)
{
    const uint64_t n = u64();
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
        throw SerializeError("corrupt element count " +
                             std::to_string(n));
    return static_cast<size_t>(n);
}

std::vector<unsigned>
Deserializer::u32vec()
{
    const size_t n = size(4);
    std::vector<unsigned> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = u32();
    return v;
}

std::vector<uint64_t>
Deserializer::u64vec()
{
    const size_t n = size(8);
    std::vector<uint64_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = u64();
    return v;
}

std::vector<double>
Deserializer::f64vec()
{
    const size_t n = size(8);
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = f64();
    return v;
}

void
Deserializer::expectEnd() const
{
    if (remaining() != 0)
        throw SerializeError(std::to_string(remaining()) +
                             " trailing bytes after artifact payload");
}

bool
fileExists(const std::string &path)
{
    std::FILE *probe = std::fopen(path.c_str(), "rb");
    if (!probe)
        return false;
    std::fclose(probe);
    return true;
}

void
writeArtifactFile(const std::string &path, uint32_t kind,
                  const Serializer &payload)
{
    const std::vector<uint8_t> &body = payload.buffer();
    uint8_t header[kHeaderBytes];
    storeLe(header, kMagic, 8);
    storeLe(header + 8, kArtifactVersion, 4);
    storeLe(header + 12, kind, 4);
    storeLe(header + 16, body.size(), 8);
    storeLe(header + 24, fnv1aHash(body.data(), body.size()), 8);

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw SerializeError("cannot open '" + path + "' for writing");
    const bool ok =
        std::fwrite(header, 1, sizeof(header), f) == sizeof(header) &&
        (body.empty() ||
         std::fwrite(body.data(), 1, body.size(), f) == body.size());
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed)
        throw SerializeError("short write to '" + path + "'");
}

Deserializer
readArtifactFile(const std::string &path, uint32_t kind)
{
    const std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "rb"));
    std::FILE *f = file.get();
    if (!f)
        throw SerializeError("cannot open artifact '" + path + "'");
    uint8_t h[kHeaderBytes];
    if (std::fread(h, 1, sizeof(h), f) != sizeof(h)) {
        if (std::ferror(f))
            throw SerializeError("I/O error reading '" + path + "'");
        throw SerializeError("'" + path + "' is too short to be an artifact");
    }
    if (loadLe(h, 8) != kMagic)
        throw SerializeError("'" + path + "' is not a BarrierPoint artifact");
    const uint32_t version = static_cast<uint32_t>(loadLe(h + 8, 4));
    if (version != kArtifactVersion)
        throw SerializeError("'" + path + "': unsupported artifact version " +
                             std::to_string(version));
    const uint32_t file_kind = static_cast<uint32_t>(loadLe(h + 12, 4));
    if (file_kind != kind)
        throw SerializeError("'" + path + "': artifact kind " +
                             std::to_string(file_kind) + ", expected " +
                             std::to_string(kind));

    // The length field must match the file before anything is
    // allocated, so no header can ask for more memory than the file
    // holds; the payload is then read once, into the buffer the
    // Deserializer keeps.
    const long file_size =
        std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
    if (file_size < 0 || std::fseek(f, kHeaderBytes, SEEK_SET) != 0)
        throw SerializeError("I/O error reading '" + path + "'");
    const uint64_t payload_size = loadLe(h + 16, 8);
    if (payload_size != static_cast<uint64_t>(file_size) - kHeaderBytes)
        throw SerializeError("'" + path + "': payload length mismatch");
    std::vector<uint8_t> payload(payload_size);
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), f) != payload.size())
        throw SerializeError("I/O error reading '" + path + "'");
    if (fnv1aHash(payload.data(), payload.size()) != loadLe(h + 24, 8))
        throw SerializeError("'" + path + "': payload checksum mismatch");
    return Deserializer(std::move(payload));
}

uint32_t
readArtifactKind(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw SerializeError("cannot open artifact '" + path + "'");
    uint8_t header[kHeaderBytes];
    const size_t got = std::fread(header, 1, sizeof(header), f);
    std::fclose(f);
    if (got != sizeof(header))
        throw SerializeError("'" + path + "' is too short to be an artifact");
    return static_cast<uint32_t>(loadLe(header + 12, 4));
}

} // namespace bp
