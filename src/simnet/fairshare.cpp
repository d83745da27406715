#include "simnet/fairshare.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace envnws::simnet {

void flow_uses_into(const std::vector<std::uint32_t>& forward,
                    const std::vector<std::uint32_t>& reverse, double reverse_weight,
                    std::vector<WeightedUse>& out) {
  out.clear();
  out.reserve(forward.size() + reverse.size());
  for (const std::uint32_t r : forward) out.push_back(WeightedUse{r, 1.0});
  const std::size_t forward_count = out.size();
  for (const std::uint32_t r : reverse) {
    const auto end = out.begin() + static_cast<std::ptrdiff_t>(forward_count);
    const auto shared = std::find_if(out.begin(), end,
                                     [r](const WeightedUse& use) { return use.resource == r; });
    if (shared != end) {
      shared->weight += reverse_weight;
    } else {
      out.push_back(WeightedUse{r, reverse_weight});
    }
  }
}

void solve_max_min_into(const std::vector<double>& capacities,
                        const std::vector<std::vector<WeightedUse>>& flows,
                        std::vector<double>& rates) {
  const std::size_t flow_count = flows.size();
  rates.assign(flow_count, std::numeric_limits<double>::infinity());

  // Remap the touched resources to dense local indices, in order of first
  // use, so the filling loop never scans a resource no flow crosses. The
  // rates do not depend on that order: the bottleneck is a minimum, and
  // each resource still sums and subtracts its flows in flow order.
  // `local_of` maps a resource to its local index during one solve; it
  // outlives the solve (one per thread) and only the touched entries are
  // reset, so a solve costs nothing per untouched resource. The working
  // arrays below are per-thread scratch as well: cleared, never shrunk.
  constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
  thread_local std::vector<std::uint32_t> local_of;
  thread_local std::vector<std::uint32_t> local;    // local index of every term, flows concatenated
  thread_local std::vector<std::uint32_t> touched;  // resource of every local index
  thread_local std::vector<double> residual;
  thread_local std::vector<double> weight_sum;
  thread_local std::vector<std::uint32_t> live_users;
  thread_local std::vector<char> fixed;
  if (local_of.size() < capacities.size()) local_of.resize(capacities.size(), kUnmapped);
  std::size_t term_count = 0;
  for (const auto& uses : flows) term_count += uses.size();
  local.clear();
  touched.clear();
  // Reserved up front: nothing between marking and resetting `local_of`
  // may throw, or a stale entry would outlive this solve.
  local.reserve(term_count);
  touched.reserve(std::min(term_count, capacities.size()));
  for (const auto& uses : flows) {
    for (const WeightedUse& use : uses) {
      assert(use.resource < capacities.size());
      std::uint32_t& slot = local_of[use.resource];
      if (slot == kUnmapped) {
        slot = static_cast<std::uint32_t>(touched.size());
        touched.push_back(use.resource);
      }
      local.push_back(slot);
    }
  }
  for (const std::uint32_t r : touched) local_of[r] = kUnmapped;
  const std::size_t touched_count = touched.size();

  residual.resize(touched_count);
  for (std::size_t t = 0; t < touched_count; ++t) residual[t] = capacities[touched[t]];
  // weight_sum[t] = total weight of still-unfixed flows crossing t; the
  // equal-rate share of t is residual[t] / weight_sum[t]. The integer
  // live-user count, not the floating-point weight sum, decides whether
  // a resource still constrains anyone: subtracting frozen weights
  // leaves dust (~1e-17) on a fully-drained resource, and its dust
  // share residual/dust can undercut every live flow's share — a
  // bottleneck no flow crosses, so no flow freezes and the filling
  // loop never terminates.
  weight_sum.assign(touched_count, 0.0);
  live_users.assign(touched_count, 0);
  const std::uint32_t* term = local.data();
  for (const auto& uses : flows) {
    for (const WeightedUse& use : uses) {
      assert(use.weight > 0.0);
      weight_sum[*term] += use.weight;
      ++live_users[*term];
      ++term;
    }
  }

  fixed.assign(flow_count, 0);
  std::size_t remaining = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (flows[f].empty()) {
      fixed[f] = 1;  // rate stays infinite: no shared resource involved
    } else {
      ++remaining;
    }
  }

  // Progressive filling: repeatedly saturate the most contended resource.
  while (remaining > 0) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < touched_count; ++t) {
      if (live_users[t] == 0) continue;
      const double share = residual[t] / weight_sum[t];
      if (share < bottleneck_share) bottleneck_share = share;
    }
    assert(bottleneck_share < std::numeric_limits<double>::infinity());

    // Every unfixed flow crossing a resource whose share equals the
    // bottleneck share is frozen at that rate.
    bool froze_any = false;
    const std::uint32_t* next = local.data();
    for (std::size_t f = 0; f < flow_count; ++f) {
      const std::vector<WeightedUse>& uses = flows[f];
      const std::uint32_t* terms = next;  // local indices of uses[0 .. size)
      next += uses.size();
      if (fixed[f]) continue;
      // weight_sum here is ≥ this flow's own weight: an unfixed flow
      // counts itself among the resource's live users. Tolerate
      // floating-point noise when comparing shares.
      const bool at_bottleneck = std::any_of(terms, next, [&](std::uint32_t t) {
        return residual[t] / weight_sum[t] <= bottleneck_share * (1.0 + 1e-12);
      });
      if (!at_bottleneck) continue;
      fixed[f] = 1;
      froze_any = true;
      --remaining;
      rates[f] = bottleneck_share;
      for (std::size_t i = 0; i < uses.size(); ++i) {
        const std::uint32_t t = terms[i];
        residual[t] -= bottleneck_share * uses[i].weight;
        if (residual[t] < 0.0) residual[t] = 0.0;
        weight_sum[t] -= uses[i].weight;
        // A drained resource drops out exactly; the dust the subtraction
        // left behind must never re-enter a share quotient.
        if (--live_users[t] == 0 || weight_sum[t] < 0.0) weight_sum[t] = 0.0;
      }
    }
    // Each round freezes at least one flow, so a solve ends within F rounds.
    assert(froze_any);
    (void)froze_any;
  }
}

}  // namespace envnws::simnet
