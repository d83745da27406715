#include "api/map_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "env/env_tree.hpp"
#include "gridml/xml.hpp"

namespace envnws::api {

namespace fs = std::filesystem;

namespace {

constexpr const char* kFileExtension = ".envmap.xml";
constexpr const char* kFormatVersion = "2";

using codec::format_full;
using codec::numeric_field;

/// Where numeric-field errors say the bad value came from.
constexpr std::string_view kEntry = "map cache entry";

void add_stats(gridml::XmlElement& element, const env::MapStats& stats) {
  element.set_attribute("experiments", std::to_string(stats.experiments));
  element.set_attribute("bytes-sent", std::to_string(stats.bytes_sent));
  element.set_attribute("duration-s", format_full(stats.duration_s));
}

Status read_stats(const gridml::XmlElement& element, env::MapStats& stats) {
  auto experiments =
      numeric_field<std::uint64_t>(element.attribute("experiments", "0"), "experiments", kEntry);
  if (!experiments.ok()) return experiments.error();
  stats.experiments = experiments.value();
  auto bytes =
      numeric_field<std::int64_t>(element.attribute("bytes-sent", "0"), "bytes-sent", kEntry);
  if (!bytes.ok()) return bytes.error();
  stats.bytes_sent = bytes.value();
  auto duration =
      numeric_field<double>(element.attribute("duration-s", "0"), "duration-s", kEntry);
  if (!duration.ok()) return duration.error();
  stats.duration_s = duration.value();
  return {};
}

void add_warnings(gridml::XmlElement& element, const std::vector<std::string>& warnings) {
  for (const auto& warning : warnings) {
    gridml::XmlElement child("WARNING");
    child.set_attribute("text", warning);
    element.add_child(std::move(child));
  }
}

std::vector<std::string> read_warnings(const gridml::XmlElement& element) {
  std::vector<std::string> warnings;
  for (const auto* child : element.children_named("WARNING")) {
    warnings.push_back(child->attribute("text"));
  }
  return warnings;
}

}  // namespace

MapCache::MapCache(std::string directory) : directory_(std::move(directory)) {}

std::string MapCache::key_for(const std::string& scenario_label,
                              const env::MapperOptions& options) {
  std::string label;
  for (const char c : scenario_label) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    label.push_back(keep ? c : '_');
  }
  if (label.empty()) label = "unnamed";
  // Every option that changes what the probes would measure; NOT
  // map_threads (the result is thread-count independent).
  std::ostringstream fields;
  fields << format_full(options.bw_split_ratio) << '|'
         << format_full(options.pairwise_independence_ratio) << '|'
         << format_full(options.jam_shared_max) << '|' << format_full(options.jam_switched_min)
         << '|' << options.jam_repetitions << '|' << options.probe_bytes << '|'
         << format_full(options.stabilization_gap_s) << '|'
         << (options.bidirectional_probes ? 1 : 0) << '|' << options.max_pairwise << '|'
         << options.sample_seed << '|' << format_full(options.sample_confidence_ratio);
  return label + "-" + hash::hex64(hash::fnv1a64(fields.str()));
}

std::string MapCache::platform_fingerprint(const simnet::Topology& topology) {
  std::ostringstream fields;
  // The link model changes what every probe would measure, so a cached
  // ideal map must never serve a lossy/tcp/wifi-decorated spec (and
  // vice versa); same for background load.
  fields << topology.link_model().fingerprint() << '|'
         << topology.background().flows << '|' << format_full(topology.background().intensity)
         << '|' << topology.background().seed << ';';
  for (const simnet::Node& node : topology.nodes()) {
    fields << node.name << '|' << node.fqdn << '|' << node.ip.to_string() << '|'
           << static_cast<int>(node.kind) << '|' << format_full(node.hub_capacity_bps) << '|';
    for (const auto& zone : node.zones) fields << zone << ',';
    for (const auto& alias : node.aliases) {
      fields << alias.fqdn << '/' << alias.ip.to_string() << '/' << alias.zone << ',';
    }
    fields << ';';
  }
  for (const simnet::Link& link : topology.links()) {
    fields << link.a.index() << '-' << link.b.index() << '|' << format_full(link.bw_ab_bps)
           << '|' << format_full(link.bw_ba_bps) << '|' << format_full(link.latency_s) << '|'
           << (link.half_duplex ? 1 : 0) << '|' << format_full(link.weight_ab) << '|'
           << format_full(link.weight_ba) << ';';
  }
  return hash::hex64(hash::fnv1a64(fields.str()));
}

std::string MapCache::path_for(const std::string& key) const {
  return (fs::path(directory_) / (key + kFileExtension)).string();
}

Status MapCache::store(const std::string& key, const env::MapResult& map) const {
  gridml::XmlElement root("ENVMAP");
  root.set_attribute("version", kFormatVersion);
  root.set_attribute("master", map.master_fqdn);
  add_stats(root, map.stats);
  add_warnings(root, map.warnings);
  for (const auto& zone : map.zones) {
    gridml::XmlElement element("ZONE");
    element.set_attribute("name", zone.spec.zone_name);
    element.set_attribute("master", zone.spec.master);
    element.set_attribute("master-fqdn", zone.master_fqdn);
    element.set_attribute("traceroute-target", zone.spec.traceroute_target);
    add_stats(element, zone.stats);
    for (const auto& hostname : zone.spec.hostnames) {
      gridml::XmlElement host("HOST");
      host.set_attribute("name", hostname);
      element.add_child(std::move(host));
    }
    add_warnings(element, zone.warnings);
    root.add_child(std::move(element));
  }
  root.add_child(map.grid.to_xml());

  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return make_error(ErrorCode::internal,
                      "cannot create map cache directory '" + directory_ + "': " + ec.message());
  }
  // Write-then-rename so a concurrent load never sees a torn entry. The
  // temp name is unique per process AND per store() call, so concurrent
  // writers of the same key cannot interleave into one temp file — last
  // rename wins with a complete document either way.
  static std::atomic<std::uint64_t> store_counter{0};
  const fs::path final_path = path_for(key);
  const fs::path temp_path =
      final_path.string() + ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
      std::to_string(store_counter.fetch_add(1));
  {
    std::ofstream out(temp_path, std::ios::trunc);
    if (!out) {
      return make_error(ErrorCode::internal,
                        "cannot write map cache entry '" + temp_path.string() + "'");
    }
    out << gridml::to_document_string(root);
    out.close();
    if (!out) {
      // A torn write (disk full, quota) must never replace a valid entry.
      fs::remove(temp_path, ec);
      return make_error(ErrorCode::internal,
                        "short write on map cache entry '" + temp_path.string() + "'");
    }
  }
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    return make_error(ErrorCode::internal,
                      "cannot finalize map cache entry '" + final_path.string() +
                          "': " + ec.message());
  }
  return {};
}

Result<env::MapResult> MapCache::load(const std::string& key) const {
  const fs::path path = path_for(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    return make_error(ErrorCode::not_found, "no map cache entry at '" + path.string() + "'");
  }
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return make_error(ErrorCode::internal, "cannot read map cache entry '" + path.string() + "'");
  }

  auto parsed = gridml::parse_xml(text.str());
  if (!parsed.ok()) return parsed.error();
  const gridml::XmlElement& root = parsed.value();
  if (root.name() != "ENVMAP" || root.attribute("version") != kFormatVersion) {
    return make_error(ErrorCode::protocol,
                      "'" + path.string() + "' is not a version-" + kFormatVersion +
                          " ENVMAP document");
  }

  env::MapResult map;
  map.master_fqdn = root.attribute("master");
  if (auto status = read_stats(root, map.stats); !status.ok()) return status.error();
  map.warnings = read_warnings(root);
  for (const auto* element : root.children_named("ZONE")) {
    env::ZoneMapResult zone;
    zone.spec.zone_name = element->attribute("name");
    zone.spec.master = element->attribute("master");
    zone.spec.traceroute_target = element->attribute("traceroute-target");
    zone.master_fqdn = element->attribute("master-fqdn");
    if (auto status = read_stats(*element, zone.stats); !status.ok()) return status.error();
    for (const auto* host : element->children_named("HOST")) {
      zone.spec.hostnames.push_back(host->attribute("name"));
    }
    zone.warnings = read_warnings(*element);
    map.zones.push_back(std::move(zone));
  }
  const gridml::XmlElement* grid = root.first_child("GRID");
  if (grid == nullptr) {
    return make_error(ErrorCode::protocol, "'" + path.string() + "' carries no GRID document");
  }
  auto doc = gridml::GridDoc::from_xml(*grid);
  if (!doc.ok()) return doc.error();
  auto view = env::published_view(doc.value());
  if (!view.ok()) {
    return make_error(ErrorCode::protocol, "'" + path.string() + "': " + view.error().message);
  }
  map.grid = std::move(doc.value());
  map.root = std::move(view.value());
  return map;
}

Status MapCache::invalidate(const std::string& key) const {
  std::error_code ec;
  fs::remove(path_for(key), ec);
  if (ec) {
    return make_error(ErrorCode::internal,
                      "cannot remove map cache entry '" + path_for(key) + "': " + ec.message());
  }
  return {};
}

}  // namespace envnws::api
