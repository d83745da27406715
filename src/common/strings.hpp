// String helpers used across the GridML parser, hostname handling and the
// text renderers. Nothing clever: std::string based, allocation-honest.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace envnws::strings {

[[nodiscard]] std::vector<std::string> split(std::string_view input, char sep);
/// Split on `sep`, dropping empty pieces.
[[nodiscard]] std::vector<std::string> split_nonempty(std::string_view input, char sep);
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);
[[nodiscard]] std::string trim(std::string_view input);
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] std::string to_lower(std::string_view input);
/// printf-style double formatting with a fixed precision.
[[nodiscard]] std::string format_double(double v, int precision);
/// Pad/truncate to exactly `width` columns (left-aligned).
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

}  // namespace envnws::strings
