#include "nws/series.hpp"

namespace envnws::nws {

const char* to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::bandwidth: return "bandwidth";
    case ResourceKind::latency: return "latency";
    case ResourceKind::connect_time: return "connectTime";
    case ResourceKind::cpu: return "availableCpu";
    case ResourceKind::memory: return "freeMemory";
    case ResourceKind::disk: return "freeDisk";
  }
  return "?";
}

Result<ResourceKind> resource_from_string(const std::string& text) {
  for (const ResourceKind kind :
       {ResourceKind::bandwidth, ResourceKind::latency, ResourceKind::connect_time,
        ResourceKind::cpu, ResourceKind::memory, ResourceKind::disk}) {
    if (text == to_string(kind)) return kind;
  }
  return make_error(ErrorCode::protocol, "unknown resource '" + text + "'");
}

std::string SeriesKey::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void SeriesKey::append_to(std::string& out) const {
  out += envnws::nws::to_string(resource);
  out += ':';
  out += src;
  if (!dst.empty()) {
    out += "->";
    out += dst;
  }
}

void TimeSeries::add(double time, double value) {
  data_.push_back(Measurement{time, value});
  ++appended_;
  while (data_.size() > capacity_) data_.pop_front();
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(data_.size());
  for (const auto& m : data_) out.push_back(m.value);
  return out;
}

double TimeSeries::mean_period() const {
  if (data_.size() < 2) return 0.0;
  return (data_.back().time - data_.front().time) / static_cast<double>(data_.size() - 1);
}

}  // namespace envnws::nws
