#include "simnet/scenario.hpp"

#include <cassert>
#include <functional>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace envnws::simnet {

using units::gbps;
using units::mbps;
using units::usec;

namespace {

/// Gives hosts paper-flavoured inventory properties (ENV's "extra
/// information gathering" phase reads these).
void decorate_host(Topology& topo, NodeId id, const std::string& cpu_model, double clock_mhz,
                   int kflops) {
  topo.set_property(id, "CPU_clock", std::to_string(clock_mhz));
  topo.set_property(id, "CPU_model", cpu_model);
  topo.set_property(id, "CPU_num", "1");
  topo.set_property(id, "Machine_type", "i686");
  topo.set_property(id, "OS_version", "Linux 2.4.19-pre7-act");
  topo.set_property(id, "kflops", std::to_string(kflops));
}

/// Address of star host `i` inside 10.0.0.0/8. The first 254 hosts keep
/// the historical 10.0.0.(1+i) addresses (committed golden traces depend
/// on them); beyond that the index spills into the higher octets /24 by
/// /24 — the old uint8_t cast silently wrapped at i == 255 and handed
/// out duplicate addresses, which is UB-adjacent for a 10,000-host star.
Ipv4 star_host_ip(int i) {
  const int block = i / 254;
  return Ipv4(10, static_cast<std::uint8_t>(block / 256), static_cast<std::uint8_t>(block % 256),
              static_cast<std::uint8_t>(1 + i % 254));
}

}  // namespace

Scenario ens_lyon() {
  Scenario scenario;
  scenario.name = "ens-lyon";
  scenario.description =
      "ENS-Lyon LAN (paper Fig. 1a): hub1{the-doors,canaria,moby} --"
      " 10 Mbps bottleneck (asymmetric return via giga router) --"
      " hub2{popc,myri,sci gateways} fronting the firewalled popc.private"
      " domain with a shared myri hub and a switched sci cluster";
  Topology& topo = scenario.topology;

  const std::string kPublicZone = "ens-lyon.fr";
  const std::string kPrivateZone = "popc.private";

  // --- public hosts ------------------------------------------------------
  const NodeId the_doors =
      topo.add_host("the-doors", "the-doors.ens-lyon.fr", Ipv4(140, 77, 13, 100));
  const NodeId canaria = topo.add_host("canaria", "canaria.ens-lyon.fr", Ipv4(140, 77, 13, 229));
  const NodeId moby = topo.add_host("moby", "moby.cri2000.ens-lyon.fr", Ipv4(140, 77, 13, 82));
  for (const NodeId id : {the_doors, canaria, moby}) topo.set_zones(id, {kPublicZone});
  decorate_host(topo, the_doors, "Pentium III", 866.8, 84000);
  decorate_host(topo, canaria, "Pentium II", 448.9, 43000);
  decorate_host(topo, moby, "Pentium Pro", 198.9, 17607);

  // --- dual-homed firewall gateways --------------------------------------
  const NodeId popc = topo.add_host("popc", "popc.ens-lyon.fr", Ipv4(140, 77, 12, 51));
  const NodeId myri = topo.add_host("myri", "myri.ens-lyon.fr", Ipv4(140, 77, 12, 52));
  const NodeId sci = topo.add_host("sci", "sci.ens-lyon.fr", Ipv4(140, 77, 12, 53));
  topo.set_zones(popc, {kPublicZone});
  topo.set_zones(myri, {kPublicZone});
  topo.set_zones(sci, {kPublicZone});
  topo.add_alias(popc, HostAlias{"popc0.popc.private", Ipv4(192, 168, 81, 51), kPrivateZone});
  topo.add_alias(myri, HostAlias{"myri0.popc.private", Ipv4(192, 168, 81, 50), kPrivateZone});
  topo.add_alias(sci, HostAlias{"sci0.popc.private", Ipv4(192, 168, 81, 52), kPrivateZone});
  decorate_host(topo, popc, "Pentium III", 1000.2, 98000);
  decorate_host(topo, myri, "Pentium III", 1000.2, 98000);
  decorate_host(topo, sci, "Pentium III", 1000.2, 98000);

  // --- private hosts ------------------------------------------------------
  const NodeId myri1 = topo.add_host("myri1", "myri1.popc.private", Ipv4(192, 168, 81, 61));
  const NodeId myri2 = topo.add_host("myri2", "myri2.popc.private", Ipv4(192, 168, 81, 62));
  std::vector<NodeId> sci_nodes;
  for (int i = 1; i <= 6; ++i) {
    const std::string name = "sci" + std::to_string(i);
    sci_nodes.push_back(topo.add_host(name, name + ".popc.private",
                                      Ipv4(192, 168, 81, static_cast<std::uint8_t>(10 + i))));
  }
  for (const NodeId id : {myri1, myri2}) {
    topo.set_zones(id, {kPrivateZone});
    decorate_host(topo, id, "Pentium II", 448.9, 43000);
  }
  for (const NodeId id : sci_nodes) {
    topo.set_zones(id, {kPrivateZone});
    decorate_host(topo, id, "Pentium III", 866.8, 84000);
  }

  // Distinct CPU load patterns (sensors and forecaster demos read these).
  topo.set_cpu_load(the_doors, LoadModel{0.6, 0.4, 3600.0, 0.0, 0.1, 10.0, 11});
  topo.set_cpu_load(canaria, LoadModel{0.2, 0.1, 1800.0, 1.0, 0.05, 10.0, 12});
  topo.set_cpu_load(moby, LoadModel{1.1, 0.6, 7200.0, 2.0, 0.2, 10.0, 13});

  // --- network devices ----------------------------------------------------
  RouterPolicy unnamed;
  unnamed.has_hostname = false;
  const NodeId edge = topo.add_router("edge", "", Ipv4(192, 168, 254, 1), unnamed);
  const NodeId r13 = topo.add_router("r13", "", Ipv4(140, 77, 13, 1), unnamed);
  const NodeId rb =
      topo.add_router("routeur-backbone", "routeur-backbone.ens-lyon.fr", Ipv4(140, 77, 161, 1));
  const NodeId routlhpc =
      topo.add_router("routlhpc", "routlhpc.ens-lyon.fr", Ipv4(140, 77, 12, 1));
  RouterPolicy silent;  // paper §4.3: many modern routers drop traceroute
  silent.responds_to_traceroute = false;
  const NodeId giga =
      topo.add_router("giga-router", "giga-router.ens-lyon.fr", Ipv4(140, 77, 200, 1), silent);
  topo.set_edge_router(edge);

  const NodeId hub1 = topo.add_hub("hub1", mbps(100));
  const NodeId hub2 = topo.add_hub("hub2", mbps(100));
  const NodeId hub3 = topo.add_hub("hub3", mbps(100));
  const NodeId sciswitch = topo.add_switch("sciswitch");

  // --- links --------------------------------------------------------------
  // hub1: public machines + uplink router r13.
  for (const NodeId id : {the_doors, canaria, moby, r13}) {
    topo.connect(id, hub1, mbps(100), usec(50), "hub1-port");
  }
  topo.connect(r13, edge, mbps(100), usec(100), "r13-edge");
  topo.connect(edge, rb, gbps(1), usec(100), "edge-backbone");

  // The asymmetric pair of routes between the backbone and routlhpc:
  // forward (towards popc) crosses the 10 Mbps link, the return flows over
  // the gigabit path through giga-router (paper §4.3, "Asymmetric routes").
  const LinkId slow = topo.connect(rb, routlhpc, mbps(10), usec(200), "slow-10mbps");
  topo.set_routing_weight(slow, /*rb->routlhpc=*/1.0, /*routlhpc->rb=*/100.0);
  const LinkId fast_a = topo.connect(rb, giga, gbps(1), usec(100), "backbone-giga");
  topo.set_routing_weight(fast_a, /*rb->giga=*/50.0, /*giga->rb=*/1.0);
  const LinkId fast_b = topo.connect(giga, routlhpc, gbps(1), usec(100), "giga-routlhpc");
  topo.set_routing_weight(fast_b, /*giga->routlhpc=*/50.0, /*routlhpc->giga=*/1.0);

  // hub2: the gateway hub behind routlhpc.
  for (const NodeId id : {routlhpc, popc, myri, sci}) {
    topo.connect(id, hub2, mbps(100), usec(50), "hub2-port");
  }
  // hub3: the shared myri cluster behind the myri gateway.
  for (const NodeId id : {myri, myri1, myri2}) {
    topo.connect(id, hub3, mbps(100), usec(50), "hub3-port");
  }
  // sci cluster: switched, ~33 Mbps effective ports (the paper's ENV run
  // reported a base bandwidth of 32.65 Mbps for this cluster).
  topo.connect(sci, sciswitch, mbps(33), usec(50), "sci-uplink");
  for (const NodeId id : sci_nodes) {
    topo.connect(id, sciswitch, mbps(33), usec(50), "sci-port");
  }

  scenario.master = "the-doors";
  scenario.zone_traceroute_target[kPublicZone] = "edge";
  scenario.zone_traceroute_target[kPrivateZone] = "popc";

  scenario.ground_truth = {
      GroundTruthNet{GroundTruthNet::Kind::shared, {"the-doors", "canaria", "moby"}, mbps(100)},
      GroundTruthNet{GroundTruthNet::Kind::shared, {"popc", "myri", "sci"}, mbps(100)},
      GroundTruthNet{GroundTruthNet::Kind::shared, {"myri1", "myri2"}, mbps(100)},
      GroundTruthNet{GroundTruthNet::Kind::switched,
                     {"sci1", "sci2", "sci3", "sci4", "sci5", "sci6"},
                     mbps(33)},
  };
  return scenario;
}

Scenario star_hub(int n, double hub_bw_bps, double latency_s) {
  Scenario scenario;
  scenario.name = "star-hub";
  scenario.description = std::to_string(n) + " hosts on one shared hub";
  Topology& topo = scenario.topology;
  const NodeId hub = topo.add_hub("hub", hub_bw_bps);
  GroundTruthNet truth;
  truth.kind = GroundTruthNet::Kind::shared;
  truth.local_bw_bps = hub_bw_bps;
  for (int i = 0; i < n; ++i) {
    const std::string name = "h" + std::to_string(i);
    const NodeId host = topo.add_host(name, name + ".lan", star_host_ip(i));
    topo.connect(host, hub, hub_bw_bps, latency_s);
    truth.member_names.push_back(name);
  }
  scenario.master = "h0";
  scenario.ground_truth.push_back(std::move(truth));
  return scenario;
}

Scenario star_switch(int n, double port_bw_bps, double latency_s) {
  Scenario scenario;
  scenario.name = "star-switch";
  scenario.description = std::to_string(n) + " hosts on one switch";
  Topology& topo = scenario.topology;
  const NodeId sw = topo.add_switch("switch");
  GroundTruthNet truth;
  truth.kind = GroundTruthNet::Kind::switched;
  truth.local_bw_bps = port_bw_bps;
  for (int i = 0; i < n; ++i) {
    const std::string name = "h" + std::to_string(i);
    const NodeId host = topo.add_host(name, name + ".lan", star_host_ip(i));
    topo.connect(host, sw, port_bw_bps, latency_s);
    truth.member_names.push_back(name);
  }
  scenario.master = "h0";
  scenario.ground_truth.push_back(std::move(truth));
  return scenario;
}

Scenario dumbbell(int left, int right, double port_bw_bps, double bottleneck_bps,
                  double wan_latency_s) {
  Scenario scenario;
  scenario.name = "dumbbell";
  scenario.description = "two switched clusters joined by a bottleneck";
  Topology& topo = scenario.topology;
  const NodeId sw_l = topo.add_switch("sw-left");
  const NodeId sw_r = topo.add_switch("sw-right");
  const NodeId r_l = topo.add_router("router-left", "router-left.lan", Ipv4(10, 0, 0, 1));
  const NodeId r_r = topo.add_router("router-right", "router-right.lan", Ipv4(10, 0, 1, 1));
  topo.connect(sw_l, r_l, port_bw_bps, 50e-6);
  topo.connect(sw_r, r_r, port_bw_bps, 50e-6);
  topo.connect(r_l, r_r, bottleneck_bps, wan_latency_s, "bottleneck");
  topo.set_edge_router(r_l);
  for (int i = 0; i < left; ++i) {
    const std::string name = "l" + std::to_string(i);
    const NodeId host =
        topo.add_host(name, name + ".lan", Ipv4(10, 0, 0, static_cast<std::uint8_t>(10 + i)));
    topo.connect(host, sw_l, port_bw_bps, 50e-6);
  }
  for (int i = 0; i < right; ++i) {
    const std::string name = "r" + std::to_string(i);
    const NodeId host =
        topo.add_host(name, name + ".lan", Ipv4(10, 0, 1, static_cast<std::uint8_t>(10 + i)));
    topo.connect(host, sw_r, port_bw_bps, 50e-6);
  }
  scenario.master = "l0";
  return scenario;
}

Scenario two_cluster_transversal(int per_cluster, double port_bw_bps, double transversal_bps) {
  Scenario scenario;
  scenario.name = "two-cluster-transversal";
  scenario.description =
      "master + two clusters with a transversal link invisible to a master-centric mapping";
  Topology& topo = scenario.topology;
  const NodeId master = topo.add_host("master", "master.lan", Ipv4(10, 1, 0, 1));
  const NodeId router = topo.add_router("router", "router.lan", Ipv4(10, 1, 0, 254));
  topo.set_edge_router(router);
  topo.connect(master, router, port_bw_bps, 50e-6, "link-master");
  const NodeId sw_a = topo.add_switch("sw-a");
  const NodeId sw_b = topo.add_switch("sw-b");
  topo.connect(router, sw_a, port_bw_bps, 1e-3, "link-A");
  topo.connect(router, sw_b, port_bw_bps, 1e-3, "link-B");
  // Link C: direct cluster<->cluster connectivity that no master-centric
  // experiment exercises. Cheap weights make inter-cluster routes use it.
  const LinkId c = topo.connect(sw_a, sw_b, transversal_bps, 100e-6, "link-C");
  topo.set_routing_weight(c, 0.5, 0.5);
  for (int i = 0; i < per_cluster; ++i) {
    const std::string an = "a" + std::to_string(i);
    const NodeId a =
        topo.add_host(an, an + ".lan", Ipv4(10, 1, 1, static_cast<std::uint8_t>(10 + i)));
    topo.connect(a, sw_a, port_bw_bps, 50e-6);
    const std::string bn = "b" + std::to_string(i);
    const NodeId b =
        topo.add_host(bn, bn + ".lan", Ipv4(10, 1, 2, static_cast<std::uint8_t>(10 + i)));
    topo.connect(b, sw_b, port_bw_bps, 50e-6);
  }
  scenario.master = "master";
  return scenario;
}

Scenario vlan_lab(int hosts_per_vlan, int vlan_count, double port_bw_bps) {
  Scenario scenario;
  scenario.name = "vlan-lab";
  scenario.description =
      "one physical switch carved into VLANs joined by a router; the logical"
      " topology (what ENV can see) differs from the physical wiring";
  Topology& topo = scenario.topology;
  const NodeId router = topo.add_router("router", "router.lan", Ipv4(10, 2, 0, 254));
  topo.set_edge_router(router);
  for (int v = 0; v < vlan_count; ++v) {
    // Each VLAN behaves as its own logical switch even though all ports
    // share one chassis; inter-VLAN traffic must cross the router, whose
    // routed trunk runs well below port speed (were inter-VLAN routing
    // at line rate, the VLANs would be indistinguishable from one big
    // switched LAN at the effective level — ENV can only observe VLANs
    // through their bandwidth footprint).
    const NodeId sw = topo.add_switch("vlan" + std::to_string(10 + v));
    topo.connect(sw, router, port_bw_bps * 0.3, 100e-6);
    GroundTruthNet truth;
    truth.kind = GroundTruthNet::Kind::switched;
    truth.local_bw_bps = port_bw_bps;
    for (int i = 0; i < hosts_per_vlan; ++i) {
      const std::string name = "v" + std::to_string(10 + v) + "h" + std::to_string(i);
      const NodeId host = topo.add_host(
          name, name + ".lan",
          Ipv4(10, 2, static_cast<std::uint8_t>(10 + v), static_cast<std::uint8_t>(1 + i)));
      topo.set_vlan(host, 10 + v);
      topo.connect(host, sw, port_bw_bps, 50e-6);
      truth.member_names.push_back(name);
    }
    scenario.ground_truth.push_back(std::move(truth));
  }
  scenario.master = "v10h0";
  return scenario;
}

Scenario wan_constellation(int sites, int hosts_per_site, double lan_bw_bps, double wan_bw_bps,
                           double wan_latency_s) {
  Scenario scenario;
  scenario.name = "wan-constellation";
  scenario.description = "WAN constellation of LAN sites (grid testbed shape)";
  Topology& topo = scenario.topology;
  const NodeId core = topo.add_router("wan-core", "core.wan", Ipv4(193, 0, 0, 1));
  topo.set_edge_router(core);
  for (int s = 0; s < sites; ++s) {
    const std::string site = "site" + std::to_string(s);
    const NodeId site_router = topo.add_router(
        site + "-gw", site + "-gw." + site + ".org", Ipv4(193, 1, static_cast<std::uint8_t>(s), 1));
    topo.connect(site_router, core, wan_bw_bps, wan_latency_s, site + "-uplink");
    const bool shared = (s % 2 == 0);
    const NodeId lan = shared ? topo.add_hub(site + "-hub", lan_bw_bps)
                              : topo.add_switch(site + "-switch");
    topo.connect(lan, site_router, lan_bw_bps, 50e-6);
    GroundTruthNet truth;
    truth.kind = shared ? GroundTruthNet::Kind::shared : GroundTruthNet::Kind::switched;
    truth.local_bw_bps = lan_bw_bps;
    for (int i = 0; i < hosts_per_site; ++i) {
      const std::string name = site + "n" + std::to_string(i);
      const NodeId host = topo.add_host(
          name, name + "." + site + ".org",
          Ipv4(193, 1, static_cast<std::uint8_t>(s), static_cast<std::uint8_t>(10 + i)));
      topo.connect(host, lan, lan_bw_bps, 50e-6);
      truth.member_names.push_back(name);
    }
    scenario.ground_truth.push_back(std::move(truth));
  }
  scenario.master = "site0n0";
  return scenario;
}

Scenario multi_firewall(int zone_count, int hosts_per_zone, double lan_bw_bps,
                        double public_bw_bps) {
  Scenario scenario;
  scenario.name = "multi-firewall";
  scenario.description = std::to_string(zone_count) + " firewalled domains of " +
                         std::to_string(hosts_per_zone) +
                         " hosts behind dual-homed gateways on one public backbone";
  Topology& topo = scenario.topology;

  const std::string kPublicZone = "corp.example";
  const NodeId edge = topo.add_router("edge", "edge.corp.example", Ipv4(10, 0, 0, 254));
  topo.set_edge_router(edge);
  const NodeId backbone = topo.add_switch("backbone-sw");
  topo.connect(backbone, edge, public_bw_bps, usec(100));

  const NodeId master = topo.add_host("master", "master.corp.example", Ipv4(10, 0, 0, 1));
  topo.set_zones(master, {kPublicZone});
  decorate_host(topo, master, "Pentium III", 1000.2, 98000);
  topo.connect(master, backbone, public_bw_bps, usec(50));
  scenario.master = "master";
  scenario.zone_traceroute_target[kPublicZone] = "edge";

  GroundTruthNet public_truth;
  public_truth.kind = GroundTruthNet::Kind::switched;
  public_truth.local_bw_bps = public_bw_bps;
  public_truth.member_names.push_back("master");

  for (int z = 0; z < zone_count; ++z) {
    const std::string zone = "zone" + std::to_string(z) + ".private";
    const std::string gw_name = "gw" + std::to_string(z);
    const auto zone_octet = static_cast<std::uint8_t>(1 + z);

    const NodeId gateway = topo.add_host(gw_name, gw_name + ".corp.example",
                                         Ipv4(10, 0, 0, static_cast<std::uint8_t>(10 + z)));
    topo.set_zones(gateway, {kPublicZone});
    topo.add_alias(gateway, HostAlias{gw_name + "." + zone, Ipv4(192, 168, zone_octet, 1), zone});
    decorate_host(topo, gateway, "Pentium III", 866.8, 84000);
    topo.connect(gateway, backbone, public_bw_bps, usec(50));
    public_truth.member_names.push_back(gw_name);
    scenario.zone_traceroute_target[zone] = gw_name;

    const bool shared = (z % 2 == 0);
    const NodeId lan = shared ? topo.add_hub("z" + std::to_string(z) + "-hub", lan_bw_bps)
                              : topo.add_switch("z" + std::to_string(z) + "-sw");
    topo.connect(gateway, lan, lan_bw_bps, usec(50));

    GroundTruthNet truth;
    truth.kind = shared ? GroundTruthNet::Kind::shared : GroundTruthNet::Kind::switched;
    truth.local_bw_bps = lan_bw_bps;
    for (int i = 0; i < hosts_per_zone; ++i) {
      const std::string name = "z" + std::to_string(z) + "h" + std::to_string(i);
      const NodeId host = topo.add_host(name, name + "." + zone,
                                        Ipv4(192, 168, zone_octet,
                                             static_cast<std::uint8_t>(10 + i)));
      topo.set_zones(host, {zone});
      decorate_host(topo, host, "Pentium II", 448.9, 43000);
      topo.connect(host, lan, lan_bw_bps, usec(50));
      truth.member_names.push_back(name);
    }
    scenario.ground_truth.push_back(std::move(truth));
  }
  scenario.ground_truth.insert(scenario.ground_truth.begin(), std::move(public_truth));
  return scenario;
}

Scenario fat_tree(int k, double bw_bps) {
  assert(k >= 2 && k % 2 == 0);
  Scenario scenario;
  scenario.name = "fat-tree";
  scenario.description = std::to_string(k) + "-ary fat-tree of " +
                         std::to_string(k * k * k / 4) + " hosts";
  Topology& topo = scenario.topology;
  const int half = k / 2;

  std::vector<NodeId> cores;
  for (int c = 0; c < half * half; ++c) {
    const std::string name = "core" + std::to_string(c);
    cores.push_back(topo.add_router(name, name + ".fat.net",
                                    Ipv4(10, 255, static_cast<std::uint8_t>(c / half),
                                         static_cast<std::uint8_t>(1 + c % half))));
  }
  topo.set_edge_router(cores.front());

  for (int p = 0; p < k; ++p) {
    const std::string pod = "p" + std::to_string(p);
    std::vector<NodeId> aggs;
    for (int a = 0; a < half; ++a) {
      const std::string name = pod + "a" + std::to_string(a);
      aggs.push_back(topo.add_router(name, name + ".fat.net",
                                     Ipv4(10, static_cast<std::uint8_t>(p), 250,
                                          static_cast<std::uint8_t>(1 + a))));
      // Aggregation router `a` reaches cores [a*half, (a+1)*half).
      for (int c = 0; c < half; ++c) {
        topo.connect(aggs.back(), cores[static_cast<std::size_t>(a * half + c)], bw_bps,
                     usec(100));
      }
    }
    for (int e = 0; e < half; ++e) {
      const NodeId edge_sw = topo.add_switch(pod + "e" + std::to_string(e));
      for (const NodeId agg : aggs) topo.connect(edge_sw, agg, bw_bps, usec(50));
      GroundTruthNet truth;
      truth.kind = GroundTruthNet::Kind::switched;
      truth.local_bw_bps = bw_bps;
      for (int h = 0; h < half; ++h) {
        const std::string name = pod + "e" + std::to_string(e) + "h" + std::to_string(h);
        const NodeId host = topo.add_host(name, name + ".fat.net",
                                          Ipv4(10, static_cast<std::uint8_t>(p),
                                               static_cast<std::uint8_t>(e),
                                               static_cast<std::uint8_t>(10 + h)));
        topo.connect(host, edge_sw, bw_bps, usec(50));
        truth.member_names.push_back(name);
      }
      scenario.ground_truth.push_back(std::move(truth));
    }
  }
  scenario.master = "p0e0h0";
  return scenario;
}

Scenario torus3d(int x, int y, int z, double bw_bps) {
  assert(x >= 1 && y >= 1 && z >= 1);
  Scenario scenario;
  scenario.name = "torus3d";
  scenario.description = std::to_string(x) + "x" + std::to_string(y) + "x" +
                         std::to_string(z) + " torus, one host per node";
  Topology& topo = scenario.topology;

  const auto node_tag = [](int i, int j, int l) {
    return std::to_string(i) + "-" + std::to_string(j) + "-" + std::to_string(l);
  };
  std::vector<NodeId> routers(static_cast<std::size_t>(x) * static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(z));
  const auto at = [&](int i, int j, int l) -> NodeId& {
    return routers[static_cast<std::size_t>((i * y + j) * z + l)];
  };
  for (int i = 0; i < x; ++i) {
    for (int j = 0; j < y; ++j) {
      for (int l = 0; l < z; ++l) {
        const std::string rname = "tr" + node_tag(i, j, l);
        at(i, j, l) = topo.add_router(rname, rname + ".torus.net",
                                      Ipv4(10, static_cast<std::uint8_t>(100 + i),
                                           static_cast<std::uint8_t>(j),
                                           static_cast<std::uint8_t>(1 + l)));
        const std::string hname = "t" + node_tag(i, j, l);
        const NodeId host = topo.add_host(hname, hname + ".torus.net",
                                          Ipv4(10, static_cast<std::uint8_t>(i),
                                               static_cast<std::uint8_t>(j),
                                               static_cast<std::uint8_t>(10 + l)));
        topo.connect(host, at(i, j, l), bw_bps, usec(50));
      }
    }
  }
  // Ring links per dimension; a dimension of size 2 gets a single link
  // (the "wrap" would duplicate it) and of size 1 none at all.
  const auto ring = [&](int size, const std::function<NodeId(int)>& pick) {
    if (size < 2) return;
    for (int a = 0; a < (size == 2 ? 1 : size); ++a) {
      topo.connect(pick(a), pick((a + 1) % size), bw_bps, usec(100));
    }
  };
  for (int j = 0; j < y; ++j) {
    for (int l = 0; l < z; ++l) {
      ring(x, [&](int a) { return at(a, j, l); });
    }
  }
  for (int i = 0; i < x; ++i) {
    for (int l = 0; l < z; ++l) {
      ring(y, [&](int a) { return at(i, a, l); });
    }
  }
  for (int i = 0; i < x; ++i) {
    for (int j = 0; j < y; ++j) {
      ring(z, [&](int a) { return at(i, j, a); });
    }
  }
  topo.set_edge_router(at(0, 0, 0));
  scenario.master = "t0-0-0";
  return scenario;
}

Scenario random_lan(std::uint64_t seed, const RandomLanParams& params) {
  Scenario scenario;
  scenario.name = "random-lan-" + std::to_string(seed);
  scenario.description = "randomized LAN with recorded ground truth";
  Topology& topo = scenario.topology;
  Rng rng(seed);
  const NodeId backbone = topo.add_router("backbone", "backbone.lan", Ipv4(10, 9, 0, 254));
  topo.set_edge_router(backbone);
  for (int s = 0; s < params.segment_count; ++s) {
    const double bw =
        params.segment_bw_bps[rng.next_below(params.segment_bw_bps.size())];
    const bool shared = rng.next_double() < params.shared_probability;
    const int host_count = params.min_hosts_per_segment +
                           static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                               params.max_hosts_per_segment - params.min_hosts_per_segment + 1)));
    const std::string seg = "seg" + std::to_string(s);
    // Each segment sits behind its own gateway router (a routed subnet,
    // like routlhpc fronting the popc hub in the paper's network): the
    // structural phase can then tell segments apart even when the master
    // lives on a slow one.
    const NodeId seg_router =
        topo.add_router(seg + "-gw", seg + "-gw.lan",
                        Ipv4(10, 9, static_cast<std::uint8_t>(1 + s), 254));
    topo.connect(seg_router, backbone, params.backbone_bw_bps, 100e-6);
    const NodeId lan = shared ? topo.add_hub(seg + "-hub", bw) : topo.add_switch(seg + "-sw");
    // The uplink runs at the segment's own speed (an access switch with
    // a line-rate uplink would make its hosts pairwise-independent from
    // outside, and ENV would — correctly — dissolve the segment).
    topo.connect(lan, seg_router, bw, 50e-6);
    GroundTruthNet truth;
    truth.kind = shared ? GroundTruthNet::Kind::shared : GroundTruthNet::Kind::switched;
    truth.local_bw_bps = bw;
    for (int i = 0; i < host_count; ++i) {
      const std::string name = seg + "h" + std::to_string(i);
      const NodeId host = topo.add_host(
          name, name + ".lan",
          Ipv4(10, 9, static_cast<std::uint8_t>(1 + s), static_cast<std::uint8_t>(1 + i)));
      topo.connect(host, lan, bw, 50e-6);
      truth.member_names.push_back(name);
    }
    scenario.ground_truth.push_back(std::move(truth));
  }
  scenario.master = "seg0h0";
  return scenario;
}

}  // namespace envnws::simnet
