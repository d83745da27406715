// The effective-view rendering: the literal expectation pins the byte
// format every identity digest and golden comparison is built on.
#include <gtest/gtest.h>

#include <string>

#include "common/units.hpp"
#include "env/env_tree.hpp"

namespace envnws::env {
namespace {

/// A tree exercising every rendered field: nested structure, every
/// NetKind, machines, gateways, reverse bandwidth and the asymmetry flag.
EnvNetwork sample_tree() {
  EnvNetwork root;
  root.kind = NetKind::structural;
  root.label = "edge.example.org";
  root.label_ip = "192.0.2.1";

  EnvNetwork lan;
  lan.kind = NetKind::switched;
  lan.label = "lan0";
  lan.base_bw_bps = units::mbps(100);
  lan.base_local_bw_bps = units::mbps(94.5);
  lan.machines = {"a.example.org", "b.example.org"};

  EnvNetwork hub;
  hub.kind = NetKind::shared;
  hub.label = "hub0";
  hub.base_bw_bps = units::mbps(10);
  hub.gateway = "gw.example.org";
  hub.machines = {"gw.example.org", "c.example.org"};

  EnvNetwork weird;
  weird.kind = NetKind::inconclusive;
  weird.label = "dmz";
  weird.base_bw_bps = units::mbps(42);
  weird.base_reverse_bw_bps = units::mbps(7);
  weird.route_asymmetric = true;
  weird.machines = {"d.example.org"};
  hub.children.push_back(weird);

  root.children.push_back(lan);
  root.children.push_back(hub);
  return root;
}

TEST(EnvTree, RenderMatchesTheCommittedFormat) {
  EXPECT_EQ(render_effective(sample_tree()),
            "* edge.example.org [192.0.2.1]\n"
            "  + lan0 <switched> base=100.00Mbps local=94.50Mbps\n"
            "      machines: a.example.org, b.example.org\n"
            "  + hub0 <shared> base=10.00Mbps via gw.example.org\n"
            "      machines: gw.example.org, c.example.org\n"
            "    + dmz <inconclusive> base=42.00Mbps reverse=7.00Mbps [ASYMMETRIC ROUTE]\n"
            "        machines: d.example.org\n");
}

}  // namespace
}  // namespace envnws::env
