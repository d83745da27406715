// Exception-free numeric parsing.
//
// Bare `std::stod`/`std::stoull` calls turn a malformed GridML attribute
// or config value into a process-killing exception, and `stoull` happily
// wraps negative input around 2^64. Every text-to-number conversion in
// the codebase goes through these helpers instead: they accept exactly a
// full, in-range numeric token and return `nullopt` for everything else,
// leaving the caller to wrap the failure in its own `Result` error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace envnws::parse {

/// Strict double: the whole string must be one numeric token — no
/// leading whitespace, no trailing junk. An explicit '+' sign is
/// allowed (it is part of the token); magnitudes that overflow to
/// infinity or underflow to zero are rejected, subnormals accepted.
[[nodiscard]] std::optional<double> to_double(const std::string& text);

/// Strict signed 64-bit integer (same token rules as to_double).
[[nodiscard]] std::optional<std::int64_t> to_i64(const std::string& text);

/// Strict unsigned 64-bit integer (same token rules). Unlike
/// std::stoull, a leading '-' is rejected instead of wrapping around
/// 2^64.
[[nodiscard]] std::optional<std::uint64_t> to_u64(const std::string& text);

}  // namespace envnws::parse
