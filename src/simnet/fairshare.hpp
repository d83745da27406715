// Max-min fair bandwidth allocation (weighted progressive filling).
//
// This is the heart of the fluid traffic model: given capacitated
// resources and flows that each consume a set of resources, compute the
// max-min fair rate vector. It reproduces exactly the phenomena the ENV
// thresholds key on — two flows crossing a hub each get half the medium;
// flows on distinct switch ports do not interact; a 10 Mbps uplink caps
// everything behind it.
//
// A flow consumes each of its resources at `weight * rate`. Weight 1.0
// everywhere is the plain model (sums of 1.0 are exact counts, so the
// arithmetic is that of an unweighted solver); the lv08 TCP model adds
// light reverse-path terms for ack cross-traffic.
//
// The solver works on the resources the flows touch only: it remaps
// them to dense local indices through a per-thread resource -> index
// table whose touched entries it resets afterwards, so one solve costs
// O(T + F·U) per filling round for T touched resources, F flows and U
// terms per flow — independent of how many resources the platform has.
// Its working arrays are per-thread scratch too, and solve_max_min_into
// writes the rates into the caller's vector: once the scratch has grown
// to the largest solve a thread has run, a solve allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace envnws::simnet {

/// One (resource, weight) term of a flow: the flow consumes
/// `weight * rate` bits/s of the resource. The lv08 TCP model expresses
/// ack cross-traffic this way: weight 1.0 on the forward path, 0.05 on
/// the reverse path (1.05 where the two coincide on half-duplex media).
struct WeightedUse {
  std::uint32_t resource = 0;
  double weight = 1.0;
};

/// Deduplicated terms of a flow that loads `forward` at weight 1.0 and
/// `reverse` at `reverse_weight`, written over `out`; a resource on both
/// carries the sum. Both inputs must be duplicate-free.
void flow_uses_into(const std::vector<std::uint32_t>& forward,
                    const std::vector<std::uint32_t>& reverse, double reverse_weight,
                    std::vector<WeightedUse>& out);

/// flow_uses_into() as a value.
[[nodiscard]] inline std::vector<WeightedUse> flow_uses(
    const std::vector<std::uint32_t>& forward, const std::vector<std::uint32_t>& reverse = {},
    double reverse_weight = 0.0) {
  std::vector<WeightedUse> uses;
  flow_uses_into(forward, reverse, reverse_weight, uses);
  return uses;
}

/// Writes the max-min fair rate of every flow over `rates`: rates are
/// equalized, and a flow's consumption of resource r is its rate times
/// its weight on r. `capacities[r]` is the bits/s available on resource
/// r; `flows[f]` holds flow f's deduplicated terms, each weight > 0.
/// Flows that use no resources get an infinite rate (the caller treats
/// them as local). Every filling round freezes at least one flow, so a
/// solve runs at most F rounds (asserted in Debug builds).
void solve_max_min_into(const std::vector<double>& capacities,
                        const std::vector<std::vector<WeightedUse>>& flows,
                        std::vector<double>& rates);

/// solve_max_min_into() as a value.
[[nodiscard]] inline std::vector<double> solve_max_min(
    const std::vector<double>& capacities, const std::vector<std::vector<WeightedUse>>& flows) {
  std::vector<double> rates;
  solve_max_min_into(capacities, flows, rates);
  return rates;
}

}  // namespace envnws::simnet
