// Tests for the host-level lock extension (paper conclusion: "a
// possibility to lock hosts (and not networks) is still needed").
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "nws/hostlocks.hpp"
#include "nws/system.hpp"
#include "simnet/scenario.hpp"

namespace envnws::nws {
namespace {

using simnet::NodeId;
using units::mbps;

TEST(HostLocks, AcquireReleaseCycle) {
  HostLockService locks;
  EXPECT_TRUE(locks.try_acquire(NodeId(1), NodeId(2)));
  locks.release(NodeId(1), NodeId(2));
  // Both hosts are free again.
  EXPECT_TRUE(locks.try_acquire(NodeId(2), NodeId(1)));
  locks.release(NodeId(2), NodeId(1));
  EXPECT_EQ(locks.acquisitions(), 2u);
  EXPECT_EQ(locks.conflicts(), 0u);
}

TEST(HostLocks, ConflictOnSharedEndpoint) {
  HostLockService locks;
  ASSERT_TRUE(locks.try_acquire(NodeId(1), NodeId(2)));
  EXPECT_FALSE(locks.try_acquire(NodeId(2), NodeId(3)));  // 2 busy
  EXPECT_FALSE(locks.try_acquire(NodeId(3), NodeId(1)));  // 1 busy
  EXPECT_TRUE(locks.try_acquire(NodeId(3), NodeId(4)));   // disjoint: fine
  EXPECT_EQ(locks.conflicts(), 2u);
  // A denied acquire must not leave partial state behind.
  locks.release(NodeId(1), NodeId(2));
  EXPECT_TRUE(locks.try_acquire(NodeId(2), NodeId(1)));
}

TEST(HostLocks, CliqueWithLocksStillMeasuresEverything) {
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.enable_host_locks = true;
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "locked";
  spec.period_s = 2.0;
  for (int i = 0; i < 4; ++i) {
    spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
  }
  system.add_clique(spec);
  system.start();
  net.run_until(600.0);
  ASSERT_NE(system.host_locks(), nullptr);
  EXPECT_GT(system.host_locks()->acquisitions(), 50u);
  for (const std::string src : {"h0", "h1"}) {
    for (const std::string dst : {"h2", "h3"}) {
      EXPECT_NE(system.find_series({ResourceKind::bandwidth, src, dst}), nullptr)
          << src << "->" << dst;
    }
  }
  // Nothing leaked: all hosts unlocked while the ring idles between
  // experiments is not guaranteed at an arbitrary instant, but total
  // acquisitions must match total experiments.
  EXPECT_EQ(system.host_locks()->acquisitions(),
            system.cliques().front()->experiments_run() +
                system.cliques().front()->lock_waits() * 0);
  system.stop();
}

TEST(HostLocks, CrossCliqueExperimentsOnSharedHostSerialize) {
  // Two cliques sharing host h1, both paced fast: without locks their
  // experiments overlap at h1; with locks one of them must wait.
  auto scenario = simnet::star_switch(3, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.enable_host_locks = true;
  NwsSystem system(net, config);
  const NodeId h0 = net.topology().find_by_name("h0").value();
  const NodeId h1 = net.topology().find_by_name("h1").value();
  const NodeId h2 = net.topology().find_by_name("h2").value();
  CliqueSpec a;
  a.name = "a";
  a.period_s = 1.0;
  a.members = {h0, h1};
  CliqueSpec b;
  b.name = "b";
  b.period_s = 1.0;
  b.members = {h1, h2};
  system.add_clique(a);
  system.add_clique(b);
  system.start();
  net.run_until(600.0);
  // Both cliques made progress...
  EXPECT_GT(system.cliques()[0]->experiments_run(), 100u);
  EXPECT_GT(system.cliques()[1]->experiments_run(), 100u);
  // ...and contention on h1 was actually exercised.
  const std::uint64_t waits =
      system.cliques()[0]->lock_waits() + system.cliques()[1]->lock_waits();
  EXPECT_GT(waits, 0u);
  system.stop();
}

TEST(HostLocks, ParallelTokensMultiplySwitchedThroughput) {
  const auto run = [](std::size_t tokens) {
    auto scenario = simnet::star_switch(6, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    SystemConfig config;
    config.nameserver_host = "h0";
    config.enable_host_locks = true;
    NwsSystem system(net, config);
    CliqueSpec spec;
    spec.name = "par";
    spec.period_s = 2.0;
    spec.parallel_tokens = tokens;
    for (int i = 0; i < 6; ++i) {
      spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
    }
    system.add_clique(spec);
    system.start();
    net.run_until(2000.0);
    const std::uint64_t experiments = system.cliques().front()->experiments_run();
    system.stop();
    return experiments;
  };
  const std::uint64_t serial = run(1);
  const std::uint64_t parallel = run(3);
  // Three tokens on a 6-member switched clique: close to 3x the
  // experiment throughput (lock conflicts cost a little).
  EXPECT_GT(parallel, serial * 2);
}

TEST(HostLocks, ParallelTokensWithoutLockServiceDegradeToOne) {
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.enable_host_locks = false;  // no lock service
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "no-locks";
  spec.period_s = 2.0;
  spec.parallel_tokens = 4;  // must be ignored
  for (int i = 0; i < 4; ++i) {
    spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
  }
  Clique& clique = system.add_clique(spec);
  system.start();
  net.run_until(200.0);
  // Single-token pace: ~1 experiment per period.
  EXPECT_LE(clique.experiments_run(), 110u);
  system.stop();
}

TEST(HostLocks, RegenerationReleasesLeakedLocks) {
  // Kill the token holder between token delivery and its experiment:
  // the token dies while NO locks are held; then kill it mid-experiment
  // window instead: locks held at death must be force-released on
  // regeneration so the survivors can keep measuring.
  auto scenario = simnet::star_switch(4, mbps(100));
  simnet::Network net(std::move(scenario.topology));
  SystemConfig config;
  config.nameserver_host = "h0";
  config.enable_host_locks = true;
  NwsSystem system(net, config);
  CliqueSpec spec;
  spec.name = "ring";
  spec.period_s = 2.0;
  for (int i = 1; i <= 3; ++i) {
    spec.members.push_back(net.topology().find_by_name("h" + std::to_string(i)).value());
  }
  system.add_clique(spec);
  system.start();
  net.run_until(1.0);
  net.set_host_up(net.topology().find_by_name("h1").value(), false);
  net.run_until(400.0);
  EXPECT_GE(system.cliques().front()->regenerations(), 1u);
  const TimeSeries* survivors = system.find_series({ResourceKind::bandwidth, "h2", "h3"});
  ASSERT_NE(survivors, nullptr);
  EXPECT_GT(survivors->latest().time, 200.0);
  system.stop();
}

}  // namespace
}  // namespace envnws::nws
