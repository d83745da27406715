// Reproducibility: the entire pipeline is deterministic — two identical
// runs produce bit-identical maps, plans, configurations and measurement
// streams. This is a core design decision (DESIGN.md #2) and what makes
// every other test in the suite trustworthy.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "common/units.hpp"

namespace envnws::api {
namespace {

using units::mbps;

struct RunDigest {
  std::string effective_view;
  std::string config;
  std::uint64_t map_experiments;
  std::int64_t map_bytes;
  double map_duration;
  std::uint64_t messages_sent;  ///< NWS control traffic: stores, queries, registrations
  std::vector<double> series_values;
};

RunDigest run_once(bool with_jitter) {
  simnet::Scenario scenario = simnet::ens_lyon();
  simnet::NetworkOptions net_options;
  if (with_jitter) {
    net_options.measurement_jitter_sigma = 0.03;
    net_options.seed = 99;
  }
  simnet::Network net(simnet::Scenario(scenario).topology, net_options);
  Session session(net, scenario);
  EXPECT_TRUE(session.run_all().ok());
  net.run_until(net.now() + 300.0);
  RunDigest digest;
  digest.effective_view = env::render_effective(session.map_result().root);
  digest.config = session.config_text();
  digest.map_experiments = session.map_result().stats.experiments;
  digest.map_bytes = session.map_result().stats.bytes_sent;
  digest.map_duration = session.map_result().stats.duration_s;
  digest.messages_sent = net.stats().messages_sent;
  const auto* series = session.system().find_series(
      {nws::ResourceKind::bandwidth, "canaria", "moby"});
  if (series != nullptr) digest.series_values = series->values();
  session.system().stop();
  return digest;
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  const RunDigest a = run_once(false);
  const RunDigest b = run_once(false);
  EXPECT_EQ(a.effective_view, b.effective_view);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.map_experiments, b.map_experiments);
  EXPECT_EQ(a.map_bytes, b.map_bytes);
  EXPECT_DOUBLE_EQ(a.map_duration, b.map_duration);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  ASSERT_EQ(a.series_values.size(), b.series_values.size());
  for (std::size_t i = 0; i < a.series_values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series_values[i], b.series_values[i]);
  }
}

TEST(Determinism, SeededJitterIsAlsoReproducible) {
  const RunDigest a = run_once(true);
  const RunDigest b = run_once(true);
  EXPECT_EQ(a.effective_view, b.effective_view);
  ASSERT_EQ(a.series_values.size(), b.series_values.size());
  for (std::size_t i = 0; i < a.series_values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series_values[i], b.series_values[i]);
  }
}

TEST(Determinism, JitteredRunDiffersFromCleanRun) {
  const RunDigest clean = run_once(false);
  const RunDigest jittered = run_once(true);
  ASSERT_FALSE(clean.series_values.empty());
  ASSERT_FALSE(jittered.series_values.empty());
  bool any_different = false;
  for (std::size_t i = 0;
       i < std::min(clean.series_values.size(), jittered.series_values.size()); ++i) {
    if (clean.series_values[i] != jittered.series_values[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace envnws::api
