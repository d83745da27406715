// The shared text codec: percent escaping, full-precision doubles and
// numeric fields — plus the contract they exist for, committed golden
// traces re-serializing to their exact bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/codec.hpp"
#include "common/parse.hpp"
#include "env/trace_probe_engine.hpp"

namespace envnws::codec {
namespace {

namespace fs = std::filesystem;

bool in_escape_set(unsigned char c) {
  return c <= 0x20 || c == 0x7f || std::strchr("%=,:|", c) != nullptr;
}

TEST(Codec, EveryByteRoundTripsThroughEscape) {
  for (int byte = 0; byte <= 0xff; ++byte) {
    const auto c = static_cast<unsigned char>(byte);
    const std::string text = std::string("a") + static_cast<char>(c) + "b";
    const std::string escaped = escape(text);
    if (in_escape_set(c)) {
      char expected[4];
      std::snprintf(expected, sizeof(expected), "%%%02X", c);
      EXPECT_EQ(escaped, std::string("a") + expected + "b") << "byte " << byte;
    } else {
      EXPECT_EQ(escaped, text) << "byte " << byte;
    }
    const auto back = unescape(escaped);
    ASSERT_TRUE(back.ok()) << "byte " << byte << ": " << back.error().to_string();
    EXPECT_EQ(back.value(), text) << "byte " << byte;
  }
}

TEST(Codec, AppendEscapedExtendsTheCallersString) {
  std::string out = "k=";
  append_escaped(out, "a b:c");
  EXPECT_EQ(out, "k=a%20b%3Ac");
}

TEST(Codec, UnescapeAcceptsAnyHexEscapeInEitherCase) {
  const auto lower = unescape("%7e%41");
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(lower.value(), "~A");
  const auto plain = unescape("abc");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value(), "abc");
}

TEST(Codec, TruncatedOrNonHexEscapesAreProtocolErrors) {
  for (const char* bad : {"%", "%4", "a%", "ab%2", "%G0", "%0G", "%zz", "x%-1y", "% 41"}) {
    const auto decoded = unescape(bad);
    ASSERT_FALSE(decoded.ok()) << "'" << bad << "' should not decode";
    EXPECT_EQ(decoded.error().code, ErrorCode::protocol) << bad;
  }
}

TEST(Codec, FullPrecisionDoublesRoundTripBitExactly) {
  for (const double value :
       {-0.0, 0.0, std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(), 0.1, 1e-300, 1.0 / 3.0, 94.5e6}) {
    const std::string text = format_full(value);
    const auto back = parse::to_double(text);
    ASSERT_TRUE(back.has_value()) << text;
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &value, sizeof(value));
    std::memcpy(&got, &*back, sizeof(got));
    EXPECT_EQ(got, want) << text;
  }
  std::string out = "t=";
  append_full(out, 0.5);
  out += ':';
  append_full(out, -2.0);
  EXPECT_EQ(out, "t=0.5:-2");
}

TEST(Codec, NumericFieldsNameTheFieldAndDocument) {
  EXPECT_EQ(numeric_field<double>("2.5", "busy-time", "probe trace").value(), 2.5);
  EXPECT_EQ(numeric_field<std::uint64_t>("7", "experiments", "probe trace").value(), 7u);
  EXPECT_EQ(numeric_field<std::int64_t>("-7", "bytes-sent", "probe trace").value(), -7);

  const auto bad = numeric_field<double>("fast", "bandwidth", "probe trace");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::protocol);
  EXPECT_EQ(bad.error().message, "bad bandwidth 'fast' in probe trace");
  EXPECT_FALSE(numeric_field<std::uint64_t>("-1", "experiments", "map cache entry").ok());
  EXPECT_FALSE(numeric_field<std::int64_t>(" 1", "bytes-sent", "map cache entry").ok());
}

TEST(GoldenTraces, CommittedTracesReserializeByteIdentically) {
  const fs::path dir = fs::path(ENVNWS_TEST_DATA_DIR) / "traces";
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".envtrace") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const auto trace = env::ProbeTrace::load(entry.path().string());
    ASSERT_TRUE(trace.ok()) << trace.error().to_string();
    EXPECT_EQ(trace.value().to_string(), bytes.str()) << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 6u);
}

}  // namespace
}  // namespace envnws::codec
