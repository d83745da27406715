#include "monitor/snapshot.hpp"

#include <algorithm>
#include <sstream>

#include "common/codec.hpp"
#include "common/hash.hpp"

namespace envnws::monitor {

// Doubles render with 17 significant digits, the same full-precision
// convention as MapResult::identity_digest().
using codec::format_full;

SnapshotBoard::SnapshotBoard() : current_(std::make_shared<MonitorSnapshot>()) {}

std::string MonitorSnapshot::header() const {
  std::ostringstream out;
  out << "monitor snapshot v" << version << "\n";
  out << "cycles " << cycles << " time " << format_full(time_s) << "\n";
  out << "measurements " << measurements << " failures " << probe_failures << "\n";
  out << "remaps " << remaps << " remap-experiments " << remap_experiments << "\n";
  out << "drifting";
  for (const auto& segment : drifting_segments) out << " " << segment;
  out << "\n";
  out << "pairs " << pairs.size() << "\n";
  return out.str();
}

std::string MonitorSnapshot::render() const {
  std::string out = header();
  for (const PairReading& pair : pairs) append_pair_line(out, pair);
  return out;
}

const std::string& MonitorSnapshot::digest() const {
  std::call_once(digest_once_, [this] {
    digest_ = hash::hex64(pairs.hash_lines(hash::fnv1a64(header())));
  });
  return digest_;
}

std::shared_ptr<const MonitorSnapshot> build_snapshot(
    SeriesStore& store, std::uint64_t version, std::uint64_t cycles, double time_s,
    std::uint64_t measurements, std::uint64_t probe_failures, std::uint64_t remaps,
    std::uint64_t remap_experiments, std::vector<std::string> drifting_segments) {
  auto snapshot = std::make_shared<MonitorSnapshot>();
  snapshot->version = version;
  snapshot->cycles = cycles;
  snapshot->time_s = time_s;
  snapshot->measurements = measurements;
  snapshot->probe_failures = probe_failures;
  snapshot->remaps = remaps;
  snapshot->remap_experiments = remap_experiments;
  std::sort(drifting_segments.begin(), drifting_segments.end());
  drifting_segments.erase(std::unique(drifting_segments.begin(), drifting_segments.end()),
                          drifting_segments.end());
  snapshot->drifting_segments = std::move(drifting_segments);
  snapshot->pairs = store.collect();
  return snapshot;
}

}  // namespace envnws::monitor
