// Allocation budgets of the per-flow simulation path, the NWS
// forecaster and a monitord cycle, counted by replacing the global
// operator new.
//
// This file builds into its own test executable (see CMakeLists.txt):
// the counting allocator would otherwise count every other test's
// allocations too. Sanitizer builds leave it out, since they bring
// their own allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "api/scenario_registry.hpp"
#include "api/session.hpp"
#include "env/mapper.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "monitor/daemon.hpp"
#include "nws/forecast.hpp"
#include "simnet/network.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace envnws {
namespace {

/// Global operator new calls made while running `body`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

TEST(AllocBudget, MappingStarSwitch50CostsAtMostTwoAllocationsPerFlow) {
  const auto scenario = api::ScenarioRegistry::builtin().make("star-switch:50@100");
  ASSERT_TRUE(scenario.ok()) << scenario.error().to_string();
  const auto zones = env::zones_from_scenario(scenario.value());
  ASSERT_TRUE(zones.ok());
  ASSERT_EQ(zones.value().size(), 1u);
  simnet::Network net(scenario.value().topology);
  const env::MapperOptions options;
  env::SimProbeEngine engine(net, options);
  env::Mapper mapper(engine, options);

  bool mapped = false;
  const std::uint64_t allocations = allocations_during(
      [&] { mapped = mapper.map_zone(zones.value().front()).ok(); });
  ASSERT_TRUE(mapped);
  const std::uint64_t flows = net.stats().flows_started;
  ASSERT_GT(flows, 1000u);
  const double per_flow = static_cast<double>(allocations) / static_cast<double>(flows);
  RecordProperty("allocations_per_flow", std::to_string(per_flow));
  // 1.66 per flow: a probe flow's completion callback fits
  // std::function's inline buffer (it was 2.66 when it did not).
  EXPECT_LE(per_flow, 2.0) << allocations << " allocations for " << flows << " flows";
}

/// Allocations per cycle of envnws_monitord --scenario=dumbbell:8x8 with
/// its defaults (the simulated engine, 3 probes per cycle over 114
/// pairs), after plan() alone or after run_all(). Warmed up until every
/// pair has been measured, so no cycle adds a series.
void monitord_cycle_allocations(bool applied, double& per_cycle) {
  const auto scenario = api::ScenarioRegistry::builtin().make("dumbbell:8x8");
  ASSERT_TRUE(scenario.ok()) << scenario.error().to_string();
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  api::Session session(net, scenario.value());
  ASSERT_TRUE(session.set_probe_engine_spec("sim").ok());
  ASSERT_TRUE((applied ? session.run_all() : session.plan()).ok());
  auto daemon = session.make_monitor(monitor::MonitorOptions{});
  ASSERT_TRUE(daemon.ok()) << daemon.error().to_string();
  ASSERT_TRUE(daemon.value()->run_cycles(2000).ok());
  ASSERT_EQ(daemon.value()->snapshot()->pairs.size(), 114u);

  constexpr std::uint64_t kCycles = 100;
  bool ran = false;
  const std::uint64_t allocations =
      allocations_during([&] { ran = daemon.value()->run_cycles(kCycles).ok(); });
  ASSERT_TRUE(ran);
  per_cycle = static_cast<double>(allocations) / static_cast<double>(kCycles);
}

TEST(AllocBudget, MonitordDumbbell8x8CycleCostsAtMost14Allocations) {
  double per_cycle = 0.0;
  monitord_cycle_allocations(false, per_cycle);
  if (HasFatalFailure()) return;
  RecordProperty("allocations_per_cycle", std::to_string(per_cycle));
  // 13.64 a cycle: 4 on the probe path (the batch's outcome vector and
  // each outcome's result vector) and 9.64 for the publish (the
  // snapshot, its root, the one copied interior node with its leaf list,
  // and for each of the 2-3 leaves the probes touched, the leaf and its
  // text). It was 17.04 while the scheduled probes, the experiments and
  // the record order were built afresh every cycle, 20.04 while each
  // scheduled probe copied its clique's name, and 45.04 while each
  // publish copied all 114 readings and lines and event text was
  // formatted with no observer to read it.
  EXPECT_LE(per_cycle, 14.0);
}

TEST(AllocBudget, MonitordAppliedDumbbell8x8CycleCostsAtMost14Allocations) {
  // The same daemon after run_all(): the stopped system leaves nothing
  // running beside it, so a cycle allocates exactly what it does after
  // plan() alone.
  double applied = 0.0, planned = 0.0;
  monitord_cycle_allocations(true, applied);
  monitord_cycle_allocations(false, planned);
  if (HasFatalFailure()) return;
  RecordProperty("allocations_per_cycle", std::to_string(applied));
  EXPECT_EQ(applied, planned);
  EXPECT_LE(applied, 14.0);
}

TEST(AllocBudget, ForecasterObservesWithoutAllocating) {
  nws::AdaptiveForecaster forecaster;
  // Warm-up past the longest window, then a stretch of fresh values.
  double value = 1.0;
  auto next = [&value] {
    value = value * 1.37 + 0.11;
    if (value > 100.0) value -= 97.0;
    return value;
  };
  for (int i = 0; i < 64; ++i) forecaster.observe(next());
  const std::uint64_t allocations = allocations_during([&] {
    for (int i = 0; i < 512; ++i) forecaster.observe(next());
  });
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace envnws
