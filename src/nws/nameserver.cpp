#include "nws/nameserver.hpp"

namespace envnws::nws {

void NameServer::register_process(const ProcessInfo& info) {
  processes_.push_back(info);
  ++registrations_;
}

void NameServer::register_series(const SeriesKey& key, const std::string& memory_name) {
  series_to_memory_[key] = memory_name;
  ++registrations_;
}

Result<std::string> NameServer::locate_memory(const SeriesKey& key) const {
  const auto it = series_to_memory_.find(key);
  if (it == series_to_memory_.end()) {
    return make_error(ErrorCode::not_found, "no memory registered for " + key.to_string());
  }
  return it->second;
}

}  // namespace envnws::nws
