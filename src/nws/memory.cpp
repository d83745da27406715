#include "nws/memory.hpp"

#include <optional>
#include <sstream>

#include "common/codec.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"

namespace envnws::nws {

void MemoryServer::store(const SeriesKey& key, double time, double value) {
  auto [it, inserted] = series_.try_emplace(key, series_capacity_);
  it->second.add(time, value);
}

const TimeSeries* MemoryServer::find(const SeriesKey& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::string MemoryServer::dump() const {
  std::ostringstream out;
  out << "# nws memory dump: " << name_ << "\n";
  for (const auto& [key, series] : series_) {
    out << "series " << to_string(key.resource) << " " << key.src << " "
        << (key.dst.empty() ? "-" : key.dst) << "\n";
    std::string points;
    for (std::size_t i = 0; i < series.size(); ++i) {
      codec::append_full(points, series.at(i).time);
      points += ' ';
      codec::append_full(points, series.at(i).value);
      points += '\n';
    }
    out << points;
  }
  return out.str();
}

Status parse_dump(const std::string& text,
                  const std::function<void(const SeriesKey&, double time, double value)>& sink) {
  std::optional<SeriesKey> key;
  for (const auto& raw_line : strings::split(text, '\n')) {
    const std::string line = strings::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const auto fields = strings::split_nonempty(line, ' ');
    if (fields.front() == "series") {
      if (fields.size() != 4) {
        return make_error(ErrorCode::protocol, "malformed series header: " + line);
      }
      const auto resource = resource_from_string(fields[1]);
      if (!resource.ok()) return resource.error();
      key = SeriesKey{resource.value(), fields[2], fields[3] == "-" ? "" : fields[3]};
      continue;
    }
    if (!key.has_value()) {
      return make_error(ErrorCode::protocol, "measurement before any series header");
    }
    const auto time = fields.size() == 2 ? parse::to_double(fields[0]) : std::nullopt;
    const auto value = fields.size() == 2 ? parse::to_double(fields[1]) : std::nullopt;
    if (!time.has_value() || !value.has_value()) {
      return make_error(ErrorCode::protocol, "malformed measurement line: " + line);
    }
    sink(*key, *time, *value);
  }
  return {};
}

Status MemoryServer::restore(const std::string& text) {
  return parse_dump(text, [this](const SeriesKey& key, double time, double value) {
    store(key, time, value);
  });
}

}  // namespace envnws::nws
