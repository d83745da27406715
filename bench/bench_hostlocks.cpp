// EXT-HOSTLOCK: the paper's concluding proposal, implemented and
// measured. "on a switched network, more than one experiment may be
// authorized if the hosts involved in each experiments are different.
// That is to say that a possibility to lock hosts (and not networks) is
// still needed."
//
// Two effects, both quantified here:
//  1. cross-clique collision-freedom on the ENS-Lyon plan (the 50%
//     worst-case error of the classic plan disappears: colliding
//     experiments always share a representative host);
//  2. parallel disjoint-host experiments on switched cliques multiply
//     the measurement refresh rate.
#include <cstdio>

#include "api/session.hpp"
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

using namespace envnws;

namespace {

std::uint64_t switched_throughput(std::size_t members, std::size_t tokens) {
  auto scenario = simnet::star_switch(static_cast<int>(members), units::mbps(100));
  simnet::Network net(std::move(scenario.topology));
  nws::SystemConfig config;
  config.nameserver_host = "h0";
  config.enable_host_locks = true;
  nws::NwsSystem system(net, config);
  nws::CliqueSpec spec;
  spec.name = "par";
  spec.period_s = 2.0;
  spec.parallel_tokens = tokens;
  for (std::size_t i = 0; i < members; ++i) {
    spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
  }
  system.add_clique(spec);
  system.start();
  net.run_until(2000.0);
  const std::uint64_t experiments = system.cliques().front()->experiments_run();
  system.stop();
  return experiments;
}

}  // namespace

int main() {
  bench::banner("EXT-HOSTLOCK",
                "paper conclusion: host locks instead of network locks (implemented)",
                "the ENS-Lyon plan's 50% worst-case cross-clique error drops to 0;"
                " switched cliques with k parallel tokens refresh ~k x faster");

  // --- effect 1: the ENS-Lyon plan -------------------------------------
  Table plans({"deployment", "collision-free", "worst concurrent error", "complete"});
  for (const bool locks : {false, true}) {
    simnet::Scenario scenario = simnet::ens_lyon();
    simnet::Network net(simnet::Scenario(scenario).topology);
    api::SessionOptions options;
    options.planner.use_host_locks = locks;
    api::Session session(net, scenario, options);
    if (!session.run_all().ok()) {
      std::fprintf(stderr, "auto-deploy failed\n");
      return 1;
    }
    const auto& report = session.validation();
    plans.add_row({locks ? "with host locks (extension)" : "classic (paper Fig. 3 plan)",
                   report.collision_free ? "yes" : "NO",
                   strings::format_double(report.worst_collision_error * 100.0, 1) + "%",
                   report.complete ? "yes" : "no"});
    session.system().stop();
  }
  std::printf("--- ENS-Lyon deployment ---\n%s\n", plans.to_string().c_str());

  // --- effect 2: switched-clique parallelism ---------------------------
  Table throughput({"members", "tokens", "experiments in 2000 s", "speedup"});
  for (const std::size_t members : {6u, 8u, 12u}) {
    const std::uint64_t serial = switched_throughput(members, 1);
    for (const std::size_t tokens : {1u, 2u, 3u}) {
      const std::uint64_t experiments =
          tokens == 1 ? serial : switched_throughput(members, tokens);
      throughput.add_row(
          {std::to_string(members), std::to_string(tokens), std::to_string(experiments),
           strings::format_double(static_cast<double>(experiments) /
                                      static_cast<double>(serial),
                                  2) +
               "x"});
    }
  }
  std::printf("--- switched clique refresh rate (2 s pace) ---\n%s",
              throughput.to_string().c_str());
  return 0;
}
