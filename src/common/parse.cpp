#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace envnws::parse {

namespace {

/// std::sto* skip leading whitespace AND count it as consumed, so the
/// full-consumption check alone would accept " 3"; reject it up front.
bool leading_whitespace(const std::string& text) {
  return !text.empty() && std::isspace(static_cast<unsigned char>(text.front()));
}

}  // namespace

std::optional<double> to_double(const std::string& text) {
  if (leading_whitespace(text)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return std::nullopt;
  // ERANGE flags overflow and underflow alike. A subnormal result is
  // still the nearest double — the 17-digit form of denorm_min must parse
  // back bit-identically — so only a magnitude that overflowed to
  // infinity or flushed to zero is out of range.
  if (errno == ERANGE && (std::isinf(value) || value == 0.0)) return std::nullopt;
  return value;
}

std::optional<std::int64_t> to_i64(const std::string& text) {
  if (leading_whitespace(text)) return std::nullopt;
  try {
    std::size_t used = 0;
    const long long value = std::stoll(text, &used);
    if (used != text.size()) return std::nullopt;
    return static_cast<std::int64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::uint64_t> to_u64(const std::string& text) {
  // std::stoull negates instead of rejecting a leading '-' ("-1" parses
  // as 18446744073709551615), so scan for one explicitly.
  if (leading_whitespace(text) || text.find('-') != std::string::npos) return std::nullopt;
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used != text.size()) return std::nullopt;
    return static_cast<std::uint64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace envnws::parse
