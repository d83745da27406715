#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace envnws::strings {

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

std::vector<std::string> split_nonempty(std::string_view input, char sep) {
  std::vector<std::string> out;
  for (auto& piece : split(input, sep)) {
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view input) {
  std::size_t begin = 0;
  std::size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1])) != 0) --end;
  return std::string(input.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string format_double(double v, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string out(text.substr(0, width));
  out.resize(width, ' ');
  return out;
}

}  // namespace envnws::strings
