// The persistent map cache: store/load round-trips, the zero-probe
// reload path through Session::map(), cache hits that re-plan exactly
// like a probe, key sensitivity to probe options, and explicit
// invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/envnws.hpp"
#include "common/units.hpp"
#include "env/env_tree.hpp"
#include "gridml/xml.hpp"

namespace envnws::api {
namespace {

namespace fs = std::filesystem;

std::string fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("envnws-map-cache-" + tag);
  fs::remove_all(dir);
  return dir.string();
}

simnet::Scenario test_scenario() {
  return ScenarioRegistry::builtin().make("multi-firewall:3x3@100/100").value();
}

/// The key Session::map() uses when no explicit label was given.
std::string default_key(const simnet::Scenario& scenario) {
  return MapCache::key_for(
      scenario.name + "+" + MapCache::platform_fingerprint(scenario.topology),
      env::MapperOptions{});
}

std::uint64_t probe_flows(const simnet::Network& net) {
  const auto it = net.stats().by_purpose.find("env-probe");
  return it == net.stats().by_purpose.end() ? 0 : it->second.flow_count;
}

TEST(MapCache, RoundTripPreservesViewGridAndZones) {
  const std::string dir = fresh_cache_dir("roundtrip");
  simnet::Network net(simnet::Scenario(test_scenario()).topology);
  Session session(net, test_scenario());
  ASSERT_TRUE(session.map().ok());
  const env::MapResult& original = session.map_result();

  MapCache cache(dir);
  const std::string key = MapCache::key_for("multi-firewall:3x3@100/100", env::MapperOptions{});
  ASSERT_TRUE(cache.store(key, original).ok());
  auto reloaded = cache.load(key);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().to_string();

  EXPECT_EQ(reloaded.value().master_fqdn, original.master_fqdn);
  EXPECT_EQ(reloaded.value().warnings, original.warnings);
  EXPECT_EQ(reloaded.value().stats.experiments, original.stats.experiments);
  EXPECT_EQ(reloaded.value().stats.bytes_sent, original.stats.bytes_sent);
  EXPECT_DOUBLE_EQ(reloaded.value().stats.duration_s, original.stats.duration_s);
  EXPECT_EQ(reloaded.value().grid.to_string(), original.grid.to_string());
  // The effective view round-trips at published precision, machine for
  // machine.
  EXPECT_EQ(env::render_effective(reloaded.value().root), env::render_effective(original.root));
  ASSERT_EQ(reloaded.value().zones.size(), original.zones.size());
  for (std::size_t z = 0; z < original.zones.size(); ++z) {
    EXPECT_EQ(reloaded.value().zones[z].spec.zone_name, original.zones[z].spec.zone_name);
    EXPECT_EQ(reloaded.value().zones[z].spec.hostnames, original.zones[z].spec.hostnames);
    EXPECT_EQ(reloaded.value().zones[z].master_fqdn, original.zones[z].master_fqdn);
  }
}

TEST(MapCache, SecondMapOfTheSameSpecPerformsZeroProbes) {
  const std::string dir = fresh_cache_dir("reload");

  // First run probes and persists.
  simnet::Network net1(simnet::Scenario(test_scenario()).topology);
  Session first(net1, test_scenario());
  first.set_map_cache(dir);
  ASSERT_TRUE(first.map().ok());
  ASSERT_GT(first.map_result().stats.experiments, 0u);
  ASSERT_TRUE(first.plan().ok());
  const std::string fresh_config = first.config_text();

  // Second run — new process, same spec — reloads: zero experiments,
  // zero probe traffic, byte-identical plan.
  simnet::Network net2(simnet::Scenario(test_scenario()).topology);
  Session second(net2, test_scenario());
  second.set_map_cache(dir);
  EventLog log;
  second.set_observer(&log);
  ASSERT_TRUE(second.map().ok());
  EXPECT_EQ(second.map_result().stats.experiments, 0u);
  EXPECT_EQ(probe_flows(net2), 0u);
  ASSERT_TRUE(second.plan().ok());
  EXPECT_EQ(second.config_text(), fresh_config);
  bool saw_cache_note = false;
  for (const auto& event : log.events()) {
    if (event.kind == Event::Kind::note &&
        event.detail.find("reloaded from cache") != std::string::npos) {
      saw_cache_note = true;
    }
  }
  EXPECT_TRUE(saw_cache_note);
}

TEST(MapCache, KeyDependsOnProbeBytesButNotOnThreads) {
  env::MapperOptions base;
  env::MapperOptions threaded = base;
  threaded.map_threads = 8;
  EXPECT_EQ(MapCache::key_for("star:4@100", base), MapCache::key_for("star:4@100", threaded));

  env::MapperOptions different = base;
  different.probe_bytes *= 2;
  EXPECT_NE(MapCache::key_for("star:4@100", base), MapCache::key_for("star:4@100", different));
  EXPECT_NE(MapCache::key_for("star:4@100", base), MapCache::key_for("star:8@100", base));
}

TEST(MapCache, KeyDependsOnEverySamplingKnob) {
  // A cached full-interrogation result must never satisfy a sampled
  // request (or vice versa), and two sampled runs only share an entry
  // when budget, seed AND confidence all agree — each knob changes what
  // the probes would have measured.
  const env::MapperOptions base;

  env::MapperOptions budget = base;
  budget.max_pairwise = 64;
  EXPECT_NE(MapCache::key_for("star:4@100", base), MapCache::key_for("star:4@100", budget));

  env::MapperOptions seed = base;
  seed.sample_seed = 2;
  EXPECT_NE(MapCache::key_for("star:4@100", base), MapCache::key_for("star:4@100", seed));

  env::MapperOptions confidence = base;
  confidence.sample_confidence_ratio = 1.5;
  EXPECT_NE(MapCache::key_for("star:4@100", base),
            MapCache::key_for("star:4@100", confidence));
}

TEST(MapCache, DifferentPlatformsUnderTheSameNameDoNotCollide) {
  // The bare simnet builders stamp one name for every size:
  // multi_firewall(2,2) and (3,5) are both "multi-firewall". The
  // platform fingerprint in the default key must keep them apart.
  const std::string dir = fresh_cache_dir("fingerprint");
  simnet::Scenario small = simnet::multi_firewall(2, 2, units::mbps(100), units::mbps(100));
  simnet::Scenario large = simnet::multi_firewall(3, 5, units::mbps(100), units::mbps(100));
  ASSERT_EQ(small.name, large.name);

  simnet::Network net1(simnet::Scenario(small).topology);
  Session first(net1, small);
  first.set_map_cache(dir);
  ASSERT_TRUE(first.map().ok());

  simnet::Network net2(simnet::Scenario(large).topology);
  Session second(net2, large);
  second.set_map_cache(dir);
  ASSERT_TRUE(second.map().ok());
  // A collision would have reloaded the small platform's view; the miss
  // re-probed and produced exactly what an uncached run of `large` does.
  EXPECT_GT(second.map_result().stats.experiments, 0u);
  simnet::Network reference_net(simnet::Scenario(large).topology);
  Session reference(reference_net, large);
  ASSERT_TRUE(reference.map().ok());
  EXPECT_EQ(second.map_result().grid.to_string(), reference.map_result().grid.to_string());
}

TEST(MapCache, InvalidationForcesReProbing) {
  const std::string dir = fresh_cache_dir("invalidate");
  simnet::Network net1(simnet::Scenario(test_scenario()).topology);
  Session first(net1, test_scenario());
  first.set_map_cache(dir);
  ASSERT_TRUE(first.map().ok());

  simnet::Network net2(simnet::Scenario(test_scenario()).topology);
  Session second(net2, test_scenario());
  second.set_map_cache(dir);
  ASSERT_TRUE(second.invalidate_map_cache().ok());
  ASSERT_TRUE(second.map().ok());
  EXPECT_GT(second.map_result().stats.experiments, 0u);  // really probed
  EXPECT_GT(probe_flows(net2), 0u);
}

TEST(MapCache, CorruptEntryIsIgnoredAndOverwritten) {
  const std::string dir = fresh_cache_dir("corrupt");
  MapCache cache(dir);
  const simnet::Scenario scenario = test_scenario();
  const std::string key = default_key(scenario);
  fs::create_directories(dir);
  { std::ofstream(cache.path_for(key)) << "<DEFINITELY-NOT-AN-ENVMAP />"; }

  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  session.set_map_cache(dir);
  ASSERT_TRUE(session.map().ok());
  EXPECT_GT(session.map_result().stats.experiments, 0u);
  // The bad entry was replaced by a valid one.
  auto reloaded = cache.load(key);
  EXPECT_TRUE(reloaded.ok()) << reloaded.error().to_string();
}

TEST(MapCache, DamagedEntriesAreMissesNeverErrorsOrGarbageMaps) {
  // Whatever is on disk — a torn write, a file from a future format
  // version, binary noise, a structurally gutted document — map() must
  // treat the entry as a miss: re-probe, produce the same result a fresh
  // run would, and leave a repaired entry behind.
  const std::string dir = fresh_cache_dir("damaged");
  const simnet::Scenario scenario = test_scenario();
  MapCache cache(dir);
  const std::string key = default_key(scenario);

  // A valid entry to damage, plus the reference mapping.
  simnet::Network seed_net(simnet::Scenario(scenario).topology);
  Session seed(seed_net, scenario);
  seed.set_map_cache(dir);
  ASSERT_TRUE(seed.map().ok());
  const std::string reference_grid = seed.map_result().grid.to_string();
  std::string valid_entry;
  {
    std::ifstream in(cache.path_for(key));
    std::ostringstream text;
    text << in.rdbuf();
    valid_entry = text.str();
  }
  ASSERT_FALSE(valid_entry.empty());

  const std::string wrong_version = [&] {
    std::string text = valid_entry;
    const auto at = text.find("version=\"2\"");
    EXPECT_NE(at, std::string::npos);
    return text.replace(at, std::string("version=\"2\"").size(), "version=\"999\"");
  }();
  const std::string gutted = [&] {
    // Structurally valid ENVMAP whose GRID lost its NETWORK elements, and
    // with them the effective view.
    auto parsed = gridml::parse_xml(valid_entry);
    EXPECT_TRUE(parsed.ok());
    gridml::XmlElement root = std::move(parsed.value());
    auto grid = std::find_if(root.children().begin(), root.children().end(),
                             [](const gridml::XmlElement& child) {
                               return child.name() == "GRID";
                             });
    EXPECT_NE(grid, root.children().end());
    const auto erased = std::erase_if(grid->children(), [](const gridml::XmlElement& child) {
      return child.name() == "NETWORK";
    });
    EXPECT_GT(erased, 0u);
    return gridml::to_document_string(root);
  }();
  const struct {
    const char* tag;
    std::string contents;
  } damages[] = {
      {"truncated", valid_entry.substr(0, valid_entry.size() / 2)},
      {"wrong-version", wrong_version},
      {"binary-garbage", std::string("\x7f\x45\x4c\x46\x02\x01\x01\0\0\0garbage", 18)},
      {"empty", ""},
      {"gutted", gutted},
  };

  for (const auto& damage : damages) {
    SCOPED_TRACE(damage.tag);
    { std::ofstream(cache.path_for(key), std::ios::trunc) << damage.contents; }
    // The damaged entry is a load miss with a protocol diagnosis — never
    // a crash, never a half-parsed map.
    auto direct = cache.load(key);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.error().code, ErrorCode::protocol);

    simnet::Network net(simnet::Scenario(scenario).topology);
    Session session(net, scenario);
    session.set_map_cache(dir);
    EventLog log;
    session.set_observer(&log);
    ASSERT_TRUE(session.map().ok());
    EXPECT_GT(session.map_result().stats.experiments, 0u);  // really re-probed
    EXPECT_EQ(session.map_result().grid.to_string(), reference_grid);
    bool ignored_note = false;
    for (const auto& event : log.events()) {
      ignored_note =
          ignored_note || event.detail.find("map cache entry ignored") != std::string::npos;
    }
    EXPECT_TRUE(ignored_note);
    // The re-probe repaired the entry in place.
    EXPECT_TRUE(cache.load(key).ok());
  }
}

TEST(MapCache, CacheHitReplansExactlyLikeAProbe) {
  // Nothing after the map stage reads the view's bandwidths, so a view
  // reloaded at GridML's published precision must re-plan, re-deploy and
  // re-validate exactly like the probing run that stored it.
  const char* const specs[] = {"ens-lyon",     "multi-firewall:3x3", "vlan:4x2",
                               "random-lan:7", "tcp-lv08:ens-lyon",  "bg:2:dumbbell:3x3"};
  for (const char* spec : specs) {
    for (const bool bidirectional : {false, true}) {
      SCOPED_TRACE(std::string(spec) + (bidirectional ? " bidirectional" : ""));
      const std::string dir = fresh_cache_dir("replan");
      const simnet::Scenario scenario = ScenarioRegistry::builtin().make(spec).value();
      SessionOptions options;
      options.mapper.bidirectional_probes = bidirectional;

      simnet::Network probe_net(simnet::Scenario(scenario).topology);
      Session probed(probe_net, scenario, options);
      probed.set_map_cache(dir);
      ASSERT_TRUE(probed.validate().ok());
      ASSERT_GT(probed.map_result().stats.experiments, 0u);

      simnet::Network hit_net(simnet::Scenario(scenario).topology);
      Session hit(hit_net, scenario, options);
      hit.set_map_cache(dir);
      ASSERT_TRUE(hit.validate().ok());
      EXPECT_EQ(hit.map_result().stats.experiments, 0u);

      EXPECT_EQ(hit.config_text(), probed.config_text());
      EXPECT_EQ(hit.plan_result().render(), probed.plan_result().render());
      EXPECT_EQ(hit.validation().render(), probed.validation().render());
      EXPECT_EQ(env::render_effective(hit.map_result().root),
                env::render_effective(probed.map_result().root));
      EXPECT_EQ(hit.map_result().grid.to_string(), probed.map_result().grid.to_string());
    }
  }
}

}  // namespace
}  // namespace envnws::api
