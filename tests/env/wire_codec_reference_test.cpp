// Differential check of the wire codec: WireMessage::parse,
// codec::unescape and codec::append_escaped scan views and copy plain
// bytes in runs. The reference below is the straightforward per-byte,
// per-token form they replaced (a token vector, substr copies, one
// append per byte); over seeded valid and garbage payloads both must
// give equal messages, equal escaped bytes and byte-equal error text.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "env/probe_wire.hpp"

namespace envnws::env {
namespace {

using wire::WireMessage;

namespace reference {

constexpr char kHex[] = "0123456789ABCDEF";

bool needs_escape(unsigned char c) {
  return c <= 0x20 || c == 0x7f || c == '%' || c == '=' || c == ',' || c == ':' || c == '|';
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (needs_escape(byte)) {
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0x0f];
    } else {
      out += c;
    }
  }
}

Result<std::string> unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) {
      return make_error(ErrorCode::protocol, "truncated %-escape in '" + std::string(text) + "'");
    }
    const int hi = hex_digit(text[i + 1]);
    const int lo = hex_digit(text[i + 2]);
    if (hi < 0 || lo < 0) {
      return make_error(ErrorCode::protocol, "bad %-escape in '" + std::string(text) + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

std::vector<std::string> split(std::string_view input, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      return out;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

Result<WireMessage> parse(const std::string& payload) {
  const auto protocol_error = [](std::string message) {
    return make_error(ErrorCode::protocol, std::move(message));
  };
  if (payload.empty()) return protocol_error("empty frame payload");
  const auto tokens = split(payload, ' ');
  WireMessage message;
  message.type = tokens.front();
  if (message.type.empty()) return protocol_error("frame payload starts with a separator");
  for (const char c : message.type) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-';
    if (!ok) return protocol_error("bad frame type '" + message.type + "'");
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const auto eq = token.find('=');
    if (token.empty() || eq == std::string::npos || eq == 0) {
      return protocol_error("bad field token '" + token + "' in " + message.type + " frame");
    }
    auto value = unescape(std::string_view(token).substr(eq + 1));
    if (!value.ok()) return value.error();
    message.fields.emplace_back(token.substr(0, eq), std::move(value.value()));
  }
  return message;
}

}  // namespace reference

/// Bytes the generators favour: separators, escape introducers and hex
/// digits, so garbage often comes close to being valid.
constexpr std::string_view kTricky = "% =,:|0123456789abcdefABCDEFgG-\n\t";

std::string random_bytes(std::mt19937& rng, std::size_t max_length) {
  std::string out;
  const std::size_t length = rng() % (max_length + 1);
  for (std::size_t i = 0; i < length; ++i) {
    out += rng() % 2 == 0 ? kTricky[rng() % kTricky.size()] : static_cast<char>(rng() % 256);
  }
  return out;
}

/// A payload built from tokens: a valid or broken type, then fields
/// whose values are escaped, raw or carry stray `%` escapes, joined by
/// single, double, leading or trailing spaces, with `=` sometimes at a
/// token's first byte.
std::string random_payload(std::mt19937& rng) {
  static const char* const types[] = {"QUERY", "SNAPSHOT-OK", "PING", "E2", "", "lower", "A%20"};
  std::string payload = types[rng() % std::size(types)];
  const std::size_t fields = rng() % 6;
  for (std::size_t f = 0; f < fields; ++f) {
    payload += rng() % 8 == 0 ? "  " : " ";
    switch (rng() % 6) {
      case 0:  // escaped value: always decodes
        payload += "key" + std::to_string(f) + "=";
        codec::append_escaped(payload, random_bytes(rng, 12));
        break;
      case 1:  // raw value with stray '%' and '=' bytes
        payload += "k=" + random_bytes(rng, 12);
        break;
      case 2:  // '=' at position 0
        payload += "=" + random_bytes(rng, 4);
        break;
      case 3:  // no '=' at all, or an empty token
        payload += random_bytes(rng, 3);
        break;
      case 4:  // a truncated escape at the end
        payload += "v=ab%" + std::string(rng() % 2, '4');
        break;
      default:  // empty value
        payload += "empty=";
        break;
    }
  }
  if (rng() % 8 == 0) payload += ' ';
  if (rng() % 16 == 0) payload.insert(0, " ");
  return payload;
}

/// True when the reference parsed `payload`.
bool expect_same_parse(const std::string& payload) {
  const auto got = WireMessage::parse(payload);
  const auto want = reference::parse(payload);
  EXPECT_EQ(got.ok(), want.ok()) << "'" << payload << "'";
  if (got.ok() != want.ok()) return want.ok();
  if (!want.ok()) {
    EXPECT_EQ(got.error().code, want.error().code) << "'" << payload << "'";
    EXPECT_EQ(got.error().message, want.error().message) << "'" << payload << "'";
    return false;
  }
  EXPECT_EQ(got.value().type, want.value().type) << "'" << payload << "'";
  EXPECT_EQ(got.value().fields, want.value().fields) << "'" << payload << "'";
  return true;
}

void expect_same_unescape(const std::string& text) {
  const auto got = codec::unescape(text);
  const auto want = reference::unescape(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (!want.ok()) {
    EXPECT_EQ(got.error().code, want.error().code) << "'" << text << "'";
    EXPECT_EQ(got.error().message, want.error().message) << "'" << text << "'";
  } else {
    EXPECT_EQ(got.value(), want.value()) << "'" << text << "'";
  }
}

void expect_same_escape(const std::string& text) {
  std::string got = "prefix=";
  std::string want = got;
  codec::append_escaped(got, text);
  reference::append_escaped(want, text);
  EXPECT_EQ(got, want) << "'" << text << "'";
}

TEST(WireFuzz, CodecMatchesThePerByteReferenceOnEveryByte) {
  for (int byte = 0; byte <= 0xff; ++byte) {
    const char c = static_cast<char>(byte);
    for (const std::string text : {std::string(1, c), "ab" + std::string(1, c) + "cd",
                                   std::string(3, c)}) {
      expect_same_escape(text);
      expect_same_unescape(text);
      expect_same_unescape("x%" + text);
      expect_same_parse("T k=" + text);
      expect_same_parse("T " + text);
      expect_same_parse(text + " k=v");
    }
  }
}

TEST(WireFuzz, CodecMatchesThePerByteReferenceOnSeededPayloads) {
  std::mt19937 rng(0xC0DEC);
  int parsed = 0;
  constexpr int kRounds = 20000;
  for (int round = 0; round < kRounds; ++round) {
    const std::string bytes = random_bytes(rng, 24);
    expect_same_escape(bytes);
    expect_same_unescape(bytes);
    expect_same_parse(bytes);
    if (expect_same_parse(random_payload(rng))) ++parsed;
    if (::testing::Test::HasFailure()) break;  // one failing input is enough to read
  }
  // Both outcomes are well represented, so neither path goes unchecked.
  EXPECT_GT(parsed, kRounds / 10);
  EXPECT_LT(parsed, kRounds * 9 / 10);
}

}  // namespace
}  // namespace envnws::env
