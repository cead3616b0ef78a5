/**
 * @file
 * Tests for the binary serialization layer: primitive round trips,
 * file framing (magic/version/kind/checksum), and clean errors on
 * malformed input.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/support/serialize.h"

namespace bp {
namespace {

/** Temp file path that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(SerializeTest, PrimitiveRoundTrip)
{
    Serializer s;
    s.u8(0xAB);
    s.u32(0xDEADBEEF);
    s.u64(0x0123456789ABCDEFull);
    s.f64(3.141592653589793);
    s.f64(-0.0);
    s.boolean(true);
    s.boolean(false);
    s.str("barrierpoint");
    s.str("");

    Deserializer d(s.buffer());
    EXPECT_EQ(d.u8(), 0xAB);
    EXPECT_EQ(d.u32(), 0xDEADBEEFu);
    EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(d.f64(), 3.141592653589793);
    const double neg_zero = d.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(d.boolean());
    EXPECT_FALSE(d.boolean());
    EXPECT_EQ(d.str(), "barrierpoint");
    EXPECT_EQ(d.str(), "");
    d.expectEnd();
}

TEST(SerializeTest, VectorRoundTrip)
{
    Serializer s;
    s.u32vec({1, 2, 3});
    s.u64vec({});
    s.f64vec({0.5, -1.25});

    Deserializer d(s.buffer());
    EXPECT_EQ(d.u32vec(), (std::vector<unsigned>{1, 2, 3}));
    EXPECT_TRUE(d.u64vec().empty());
    EXPECT_EQ(d.f64vec(), (std::vector<double>{0.5, -1.25}));
    d.expectEnd();
}

TEST(SerializeTest, LittleEndianByteOrder)
{
    Serializer s;
    s.u32(0x01020304);
    ASSERT_EQ(s.buffer().size(), 4u);
    EXPECT_EQ(s.buffer()[0], 0x04);
    EXPECT_EQ(s.buffer()[3], 0x01);
}

TEST(SerializeTest, TruncatedBufferThrows)
{
    Serializer s;
    s.u32(7);
    Deserializer d(s.buffer());
    d.u32();
    EXPECT_THROW(d.u8(), SerializeError);
}

TEST(SerializeTest, CorruptCountThrows)
{
    // An element count far beyond the remaining bytes must be caught
    // before any allocation happens.
    Serializer s;
    s.u64(1ull << 60);
    Deserializer d(s.buffer());
    EXPECT_THROW(d.u64vec(), SerializeError);
}

TEST(SerializeTest, TrailingBytesDetected)
{
    Serializer s;
    s.u8(1);
    s.u8(2);
    Deserializer d(s.buffer());
    d.u8();
    EXPECT_THROW(d.expectEnd(), SerializeError);
}

TEST(SerializeTest, FileRoundTrip)
{
    TempFile file("serialize_roundtrip.bp");
    Serializer s;
    s.str("payload");
    s.u64(42);
    writeArtifactFile(file.path(), 7, s);

    Deserializer d = readArtifactFile(file.path(), 7);
    EXPECT_EQ(d.str(), "payload");
    EXPECT_EQ(d.u64(), 42u);
    d.expectEnd();
}

TEST(SerializeTest, MissingFileThrows)
{
    EXPECT_THROW(readArtifactFile("/nonexistent/artifact.bp", 1),
                 SerializeError);
}

TEST(SerializeTest, WrongKindThrows)
{
    TempFile file("serialize_kind.bp");
    Serializer s;
    s.u64(1);
    writeArtifactFile(file.path(), 3, s);
    EXPECT_THROW(readArtifactFile(file.path(), 4), SerializeError);
}

TEST(SerializeTest, ShortFileThrows)
{
    TempFile file("serialize_short.bp");
    std::ofstream out(file.path(), std::ios::binary);
    out << "BPAR";
    out.close();
    EXPECT_THROW(readArtifactFile(file.path(), 1), SerializeError);
}

TEST(SerializeTest, BadMagicThrows)
{
    TempFile file("serialize_magic.bp");
    std::ofstream out(file.path(), std::ios::binary);
    out << std::string(64, 'x');
    out.close();
    EXPECT_THROW(readArtifactFile(file.path(), 1), SerializeError);
}

TEST(SerializeTest, FlippedPayloadByteFailsChecksum)
{
    TempFile file("serialize_checksum.bp");
    Serializer s;
    s.u64(0xFEEDFACE);
    s.str("checksummed");
    writeArtifactFile(file.path(), 2, s);

    // Flip one payload byte in place.
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    const char flipped = 'Z';
    f.write(&flipped, 1);
    f.close();
    EXPECT_THROW(readArtifactFile(file.path(), 2), SerializeError);
}

TEST(SerializeTest, TruncatedFileFailsLengthCheck)
{
    TempFile file("serialize_trunc.bp");
    Serializer s;
    s.u64vec({1, 2, 3, 4, 5, 6, 7, 8});
    writeArtifactFile(file.path(), 2, s);

    // Re-write the file minus its last 8 bytes.
    std::ifstream in(file.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(file.path(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 8));
    out.close();
    EXPECT_THROW(readArtifactFile(file.path(), 2), SerializeError);
}

TEST(SerializeTest, ChecksumIsFnv1a)
{
    const uint8_t data[] = {'a', 'b', 'c'};
    // Reference FNV-1a 64-bit value of "abc".
    EXPECT_EQ(fnv1aHash(data, 3), 0xe71fa2190541574bull);
}

} // namespace
} // namespace bp
