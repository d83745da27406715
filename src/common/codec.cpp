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
  // Plain bytes go out in runs: one append per run, not per byte.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (!needs_escape(byte)) continue;
    out.append(text.substr(run, i - run));
    const char escaped[3] = {'%', kHex[byte >> 4], kHex[byte & 0x0f]};
    out.append(escaped, sizeof(escaped));
    run = i + 1;
  }
  out.append(text.substr(run));
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

Result<std::string> unescape(std::string_view text) {
  std::size_t percent = text.find('%');
  if (percent == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  std::size_t run = 0;  // start of the plain run before `percent`
  while (percent != std::string_view::npos) {
    if (percent + 2 >= text.size()) {
      return make_error(ErrorCode::protocol,
                        "truncated %-escape in '" + std::string(text) + "'");
    }
    const int hi = hex_digit(text[percent + 1]);
    const int lo = hex_digit(text[percent + 2]);
    if (hi < 0 || lo < 0) {
      return make_error(ErrorCode::protocol, "bad %-escape in '" + std::string(text) + "'");
    }
    out.append(text.substr(run, percent - run));
    out += static_cast<char>(hi * 16 + lo);
    run = percent + 3;
    percent = text.find('%', run);
  }
  out.append(text.substr(run));
  return out;
}

}  // namespace envnws::codec
