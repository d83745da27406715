// The text codec shared by every serialized format: probe traces, the
// probe/query wire protocol, map-cache entries, identity digests,
// monitor snapshots and the NWS memory dump.
//
//  - Doubles print with 17 significant digits, which is enough for any
//    IEEE double to parse back bit-identically (parse::to_double).
//  - Strings are percent-escaped so they survive grammars that split on
//    whitespace, '=', ',', ':' or '|'. Bytes <= 0x20, 0x7F and the five
//    separators `% = , : |` encode as %XX (uppercase hex); the decoder
//    accepts any %XX, so older encodings that escaped fewer bytes still
//    decode.
//  - Numeric fields parse into a Result whose `protocol` error names the
//    field and the document it came from.
//
// The encoders append to a caller-owned string: a serializer reserves
// once and appends every field in place.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/parse.hpp"
#include "common/result.hpp"

namespace envnws::codec {

/// Append `value` with 17 significant digits, printf-style.
void append_full(std::string& out, double value);
[[nodiscard]] std::string format_full(double value);

/// Append `text` percent-escaped.
void append_escaped(std::string& out, std::string_view text);
[[nodiscard]] std::string escape(std::string_view text);
/// Inverse of escape(); `protocol` error on a truncated or non-hex `%xx`.
[[nodiscard]] Result<std::string> unescape(std::string_view text);

/// Parse a whole-token numeric field (double, std::uint64_t or
/// std::int64_t, via common/parse.hpp). On failure: a `protocol` error
/// "bad <what> '<text>' in <where>".
template <typename T>
[[nodiscard]] Result<T> numeric_field(const std::string& text, std::string_view what,
                                      std::string_view where) {
  std::optional<T> value;
  if constexpr (std::is_same_v<T, double>) {
    value = parse::to_double(text);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    value = parse::to_u64(text);
  } else {
    static_assert(std::is_same_v<T, std::int64_t>, "numeric_field: double, u64 or i64");
    value = parse::to_i64(text);
  }
  if (value.has_value()) return *value;
  return make_error(ErrorCode::protocol, "bad " + std::string(what) + " '" + text + "' in " +
                                             std::string(where));
}

}  // namespace envnws::codec
