// Substrate micro-benchmarks (google-benchmark): cost of the fluid
// max-min solver, event queue, routing, XML parsing, forecasting, a
// complete ENV mapping and a deployment validation — the "how expensive
// is the simulator itself" numbers behind every other experiment.
#include <benchmark/benchmark.h>

#include "api/envnws.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "deploy/validate.hpp"
#include "env/mapper.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "gridml/model.hpp"
#include "nws/forecast.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fairshare.hpp"
#include "simnet/routing.hpp"
#include "simnet/scenario.hpp"

namespace {

using namespace envnws;

void BM_FairShareSolve(benchmark::State& state) {
  // The flows touch flows/2 + 2 resources scattered over a capacity
  // vector 64x wider, as transfers on a large platform do: the filling
  // rounds scan the touched resources only, not the vector's width.
  constexpr std::size_t kSpread = 64;
  const auto flow_count = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  const std::size_t touched = flow_count / 2 + 2;
  std::vector<double> capacities(touched * kSpread);
  for (double& capacity : capacities) capacity = rng.uniform(1e6, 1e9);
  std::vector<std::vector<simnet::WeightedUse>> flows;
  for (std::size_t f = 0; f < flow_count; ++f) {
    std::vector<std::uint32_t> used;
    for (std::size_t r = 0; r < touched; ++r) {
      if (rng.next_double() < 0.3) used.push_back(static_cast<std::uint32_t>(r * kSpread));
    }
    if (used.empty()) used.push_back(0);
    flows.push_back(simnet::flow_uses(used));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simnet::solve_max_min(capacities, flows));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flow_count));
}
BENCHMARK(BM_FairShareSolve)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_EventQueueChurn(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    simnet::EventQueue queue;
    for (std::size_t i = 0; i < events; ++i) {
      queue.schedule_at(rng.next_double() * 1000.0, [] {});
    }
    simnet::SimTime t = 0;
    simnet::EventFn fn;
    while (queue.pop(t, fn)) {
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1024)->Arg(16384);

// One cold route across a WAN constellation. A host is a leaf of its
// site LAN, so a host source builds the LAN's tree and prepends one hop;
// a site router source builds its own tree.
void route_cold(benchmark::State& state, bool from_router) {
  auto scenario = simnet::wan_constellation(8, 12, units::mbps(100), units::mbps(10));
  const simnet::Topology topo = std::move(scenario.topology);
  const auto hosts = topo.hosts();
  const simnet::NodeId src =
      from_router ? topo.find_by_name("site0-gw").value() : hosts.front();
  for (auto _ : state) {
    simnet::RouteTable routes(topo);  // cold tables each iteration
    benchmark::DoNotOptimize(routes.path(src, hosts.back()));
  }
}
void BM_RoutingDijkstraLeafSource(benchmark::State& state) { route_cold(state, false); }
BENCHMARK(BM_RoutingDijkstraLeafSource);
void BM_RoutingDijkstraRouterSource(benchmark::State& state) { route_cold(state, true); }
BENCHMARK(BM_RoutingDijkstraRouterSource);

void BM_FlowTransferSimulation(benchmark::State& state) {
  for (auto _ : state) {
    auto scenario = simnet::star_switch(8, units::mbps(100));
    simnet::Network net(std::move(scenario.topology));
    int done = 0;
    for (int i = 0; i < 4; ++i) {
      net.start_flow(simnet::NodeId(static_cast<std::uint32_t>(2 * i)),
                     simnet::NodeId(static_cast<std::uint32_t>(2 * i + 1)), 1 << 20,
                     [&done](const simnet::FlowResult&) { ++done; });
    }
    net.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FlowTransferSimulation);

void BM_ForecasterObserve(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 1024; ++i) values.push_back(50.0 + rng.normal(0.0, 5.0));
  for (auto _ : state) {
    nws::AdaptiveForecaster forecaster;
    for (const double v : values) forecaster.observe(v);
    benchmark::DoNotOptimize(forecaster.forecast());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ForecasterObserve);

void BM_GridmlParse(benchmark::State& state) {
  auto scenario = simnet::ens_lyon();
  simnet::Network net(std::move(scenario.topology));
  // Build a representative document once via a real mapping.
  env::MapperOptions options;
  env::SimProbeEngine engine(net, options);
  env::Mapper mapper(engine, options);
  simnet::Scenario fresh = simnet::ens_lyon();
  auto mapped = mapper.map(env::zones_from_scenario(fresh).value(),
                           env::gateway_aliases_from_scenario(fresh));
  const std::string xml = mapped.ok() ? mapped.value().grid.to_string() : "<GRID />";
  for (auto _ : state) {
    benchmark::DoNotOptimize(gridml::GridDoc::parse(xml));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_GridmlParse);

void BM_FullEnvMapping(benchmark::State& state) {
  for (auto _ : state) {
    simnet::Scenario scenario = simnet::ens_lyon();
    simnet::Network net(simnet::Scenario(scenario).topology);
    env::MapperOptions options;
    env::SimProbeEngine engine(net, options);
    env::Mapper mapper(engine, options);
    auto result = mapper.map(env::zones_from_scenario(scenario).value(),
                             env::gateway_aliases_from_scenario(scenario));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullEnvMapping)->Unit(benchmark::kMillisecond);

// The §2.3 validator on a multi-zone platform. Map, plan and apply run
// once; only validate_plan is timed.
void BM_ValidatePlan(benchmark::State& state, const char* spec) {
  auto scenario = api::ScenarioRegistry::builtin().make(spec);
  if (!scenario.ok()) {
    state.SkipWithError(scenario.error().to_string().c_str());
    return;
  }
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  api::Session session(net, scenario.value());
  if (!session.map().ok() || !session.plan().ok() || !session.apply().ok()) {
    state.SkipWithError("map, plan or apply failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deploy::validate_plan(session.plan_result(), net));
  }
}
BENCHMARK_CAPTURE(BM_ValidatePlan, MultiFirewall8x8, "multi-firewall:8x8")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ValidatePlan, MultiFirewall16x16, "multi-firewall:16x16")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
