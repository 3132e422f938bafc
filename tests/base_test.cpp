#include <gtest/gtest.h>

#include <set>

#include "base/bytes.hpp"
#include "base/encoding.hpp"
#include "base/result.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"

namespace dnsboot {
namespace {

TEST(Bytes, ReaderReadsBigEndian) {
  Bytes data{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  ByteReader r{data};
  EXPECT_EQ(r.u8().value(), 0x01);
  EXPECT_EQ(r.u16().value(), 0x0203);
  EXPECT_EQ(r.u32().value(), 0x04050607u);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderRejectsTruncatedReads) {
  Bytes data{0x01};
  ByteReader r{data};
  EXPECT_FALSE(r.u16().ok());
  // A failed read must not consume the remaining byte.
  EXPECT_EQ(r.u8().value(), 0x01);
  EXPECT_FALSE(r.u8().ok());
}

TEST(Bytes, ReaderSeekAndPeek) {
  Bytes data{0xaa, 0xbb, 0xcc};
  ByteReader r{data};
  EXPECT_TRUE(r.seek(2).ok());
  EXPECT_EQ(r.peek_u8().value(), 0xcc);
  EXPECT_EQ(r.offset(), 2u);
  EXPECT_FALSE(r.seek(4).ok());
}

TEST(Bytes, ReaderBytesAndSkip) {
  Bytes data{1, 2, 3, 4, 5};
  ByteReader r{data};
  EXPECT_TRUE(r.skip(1).ok());
  auto chunk = r.bytes(3);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk.value(), (Bytes{2, 3, 4}));
  EXPECT_FALSE(r.bytes(2).ok());
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Bytes, WriterRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.raw(std::string("xy"));
  ByteReader r{w.data()};
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(to_string(r.bytes(2).value()), "xy");
}

TEST(Bytes, WriterPatch) {
  ByteWriter w;
  w.u16(0);
  w.u8(7);
  w.patch_u16(0, 0xbeef);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u16().value(), 0xbeef);
}

TEST(Result, TryMacroPropagatesErrors) {
  auto inner = []() -> Result<int> { return Error{"e.code", "boom"}; };
  auto outer = [&]() -> Result<int> {
    DNSBOOT_TRY(v, inner());
    return v + 1;
  };
  auto r = outer();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "e.code");
  EXPECT_EQ(r.error().to_string(), "e.code: boom");
}

TEST(Result, StatusOkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e = Error{"x", ""};
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().to_string(), "x");
}

TEST(Encoding, HexRoundTrip) {
  Bytes data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
  EXPECT_EQ(hex_decode("00ff10AB").value(), data);
  EXPECT_FALSE(hex_decode("0").ok());
  EXPECT_FALSE(hex_decode("zz").ok());
}

TEST(Encoding, Base64KnownVectors) {
  // RFC 4648 §10 vectors.
  EXPECT_EQ(base64_encode(to_bytes("")), "");
  EXPECT_EQ(base64_encode(to_bytes("f")), "Zg==");
  EXPECT_EQ(base64_encode(to_bytes("fo")), "Zm8=");
  EXPECT_EQ(base64_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64_encode(to_bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64_encode(to_bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64_encode(to_bytes("foobar")), "Zm9vYmFy");
  EXPECT_EQ(to_string(base64_decode("Zm9vYmFy").value()), "foobar");
  EXPECT_EQ(to_string(base64_decode("Zm9vYg==").value()), "foob");
  EXPECT_FALSE(base64_decode("a=b").ok());
}

TEST(Encoding, Base32HexKnownVectors) {
  // RFC 4648 §10 vectors (lower-cased, unpadded as used by NSEC3).
  EXPECT_EQ(base32hex_encode(to_bytes("")), "");
  EXPECT_EQ(base32hex_encode(to_bytes("f")), "co");
  EXPECT_EQ(base32hex_encode(to_bytes("fo")), "cpng");
  EXPECT_EQ(base32hex_encode(to_bytes("foo")), "cpnmu");
  EXPECT_EQ(base32hex_encode(to_bytes("foob")), "cpnmuog");
  EXPECT_EQ(base32hex_encode(to_bytes("fooba")), "cpnmuoj1");
  EXPECT_EQ(base32hex_encode(to_bytes("foobar")), "cpnmuoj1e8");
  EXPECT_EQ(to_string(base32hex_decode("cpnmuoj1e8").value()), "foobar");
}

class EncodingRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EncodingRoundTrip, AllCodecsRoundTripRandomBuffers) {
  Rng rng(GetParam() * 7919 + 1);
  Bytes data = rng.bytes(GetParam());
  EXPECT_EQ(hex_decode(hex_encode(data)).value(), data);
  EXPECT_EQ(base64_decode(base64_encode(data)).value(), data);
  EXPECT_EQ(base32hex_decode(base32hex_encode(data)).value(), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EncodingRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 16, 20, 31, 32,
                                           33, 64, 255, 1024));

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(Rng(42).next_u64(), c.next_u64());
}

TEST(Rng, ForkIndependence) {
  Rng root(7);
  Rng a = root.fork("alpha");
  Rng b = root.fork("beta");
  Rng a2 = root.fork("alpha");
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  EXPECT_NE(Rng(7).fork("alpha").next_u64(), b.next_u64());
}

TEST(Rng, NextBelowBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(5);
  std::array<int, 8> counts{};
  constexpr int kTrials = 80000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) {
    EXPECT_GT(c, kTrials / 8 - 800);
    EXPECT_LT(c, kTrials / 8 + 800);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(2);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.next_in_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, FillProducesAllBytesEventually) {
  Rng rng(9);
  auto buf = rng.bytes(65536);
  std::set<std::uint8_t> seen(buf.begin(), buf.end());
  EXPECT_EQ(seen.size(), 256u);
}

TEST(Strings, AsciiCaseHelpers) {
  EXPECT_EQ(ascii_lower("ExAmPle.COM"), "example.com");
  EXPECT_TRUE(ascii_iequals("CDS", "cds"));
  EXPECT_FALSE(ascii_iequals("cds", "cdnskey"));
  EXPECT_TRUE(starts_with("_dsboot.example", "_dsboot."));
  EXPECT_TRUE(ends_with("ns1.cloudflare.com", ".cloudflare.com"));
  EXPECT_FALSE(ends_with("x", "longer"));
}

TEST(Strings, SplitJoinTrim) {
  EXPECT_EQ(split("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_whitespace("  a\tb  c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(trim("  x \n"), "x");
}

TEST(Strings, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1 000");
  EXPECT_EQ(format_count(56446359), "56 446 359");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.123456, 1), "12.3");
  EXPECT_EQ(format_percent(0.999, 1), "99.9");
  EXPECT_EQ(format_percent(0.0002, 2), "0.02");
}

}  // namespace
}  // namespace dnsboot
