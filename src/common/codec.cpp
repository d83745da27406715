#include "common/codec.hpp"

#include <cstdio>

namespace envnws::codec {

namespace {

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

}  // namespace

void append_full(std::string& out, double value) {
  char buffer[32];  // "-1.2345678901234567e-308" is the longest: 24 bytes
  const int length = std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out.append(buffer, static_cast<std::size_t>(length));
}

std::string format_full(double value) {
  std::string out;
  append_full(out, value);
  return out;
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

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
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
      return make_error(ErrorCode::protocol,
                        "truncated %-escape in '" + std::string(text) + "'");
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

}  // namespace envnws::codec
