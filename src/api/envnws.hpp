// Umbrella header: the public surface of the envnws library.
//
//   #include "api/envnws.hpp"
//
//   auto scenario = envnws::api::ScenarioRegistry::builtin().make("ens-lyon");
//   envnws::simnet::Network net(envnws::simnet::Scenario(scenario.value()).topology);
//   envnws::api::Session session(net, scenario.value());
//   if (session.run_all().ok()) { ... session.queries().bandwidth(...) ... }
//
// Pulls in the staged pipeline (api/session.hpp), the progress-event
// interface (api/observer.hpp), the named scenario registry
// (api/scenario_registry.hpp), the persistent map cache
// (api/map_cache.hpp) and GridML-described platforms
// (api/gridml_scenario.hpp).
#pragma once

#include "api/gridml_scenario.hpp"
#include "api/map_cache.hpp"
#include "api/observer.hpp"
#include "api/scenario_registry.hpp"
#include "api/session.hpp"
