#include "env/mapper.hpp"

#include <algorithm>
#include <cassert>
#include <future>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "env/batch_schedule.hpp"
#include "env/env_tree.hpp"
#include "simnet/address.hpp"

namespace envnws::env {

namespace {

/// Trailing DNS labels that constitute a SITE domain
/// ("moby.cri2000.ens-lyon.fr" -> "ens-lyon.fr").
constexpr std::size_t kSiteDomainLabels = 2;
/// Bidirectional probing flags a network as route-asymmetric when its
/// forward and reverse base bandwidths differ by at least this factor.
constexpr double kAsymmetryRatio = 1.5;

/// SITE key for a machine: the trailing kSiteDomainLabels DNS labels of
/// the fqdn; when reverse DNS failed, the classful IP network (paper
/// §4.3, "Machines without hostname").
std::string site_key(const HostIdentity& identity) {
  if (!identity.fqdn.empty()) {
    const auto parts = strings::split_nonempty(identity.fqdn, '.');
    if (parts.size() < 2) return identity.fqdn;
    // Always drop at least the host label itself ("h0.lan" -> "lan").
    const auto take = std::min(kSiteDomainLabels, parts.size() - 1);
    std::vector<std::string> tail(parts.end() - static_cast<std::ptrdiff_t>(take),
                                  parts.end());
    return strings::join(tail, ".");
  }
  if (const auto ip = simnet::Ipv4::parse(identity.ip); ip.ok()) {
    return ip.value().classful_network().to_string();
  }
  return "unknown";
}

std::string site_label_from_domain(const std::string& domain) {
  std::string label = strings::to_lower(domain);
  for (char& c : label) {
    if (c == '.') c = '-';
  }
  std::transform(label.begin(), label.end(), label.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return label;
}

/// Union-find over cluster member indices (pairwise dependence classes).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

double median_of(std::vector<double> values) {
  return stats::median(values);
}

Error null_engine_error(const ZoneSpec& spec) {
  return make_error(ErrorCode::internal,
                    "zone engine factory returned no engine for zone '" + spec.zone_name + "'");
}

/// Wall-clock of running jobs of the given durations, in order, over
/// `workers` concurrent slots (list scheduling: each job starts on the
/// slot that frees up first). With one worker this is exactly the sum, so
/// sequential and concurrent mapping share one duration formula.
double schedule_makespan(const std::vector<double>& durations, std::size_t workers) {
  if (workers == 0) workers = 1;
  std::vector<double> free_at(std::min(workers, std::max<std::size_t>(durations.size(), 1)), 0.0);
  for (const double duration : durations) {
    auto slot = std::min_element(free_at.begin(), free_at.end());
    *slot += duration;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

}  // namespace

double MapResult::batched_duration_s() const {
  double floor = 0.0;
  for (const auto& zone : zones) floor = std::max(floor, zone.batched_duration_s());
  return std::max(stats.duration_s - batch.saved_s(), floor);
}

std::string MapResult::canonical(const std::string& name) const {
  if (const gridml::Machine* machine = grid.find_machine(name)) return machine->name;
  return name;
}

std::string MapResult::identity_digest() const {
  const auto digest_stats = [](std::ostringstream& out, const MapStats& stats) {
    out << "stats: " << stats.experiments << ' ' << stats.bytes_sent << ' '
        << codec::format_full(stats.duration_s) << '\n';
  };
  std::ostringstream out;
  out << "master: " << master_fqdn << '\n';
  for (const auto& warning : warnings) out << "warning: " << warning << '\n';
  digest_stats(out, stats);
  out << grid.to_string() << render_effective(root);
  for (const auto& zone : zones) {
    out << "zone: " << zone.spec.zone_name << " master " << zone.master_fqdn << '\n';
    digest_stats(out, zone.stats);
    out << render_effective(zone.root);
  }
  return out.str();
}

Mapper::Mapper(ProbeEngine& engine, MapperOptions options)
    : engine_(&engine), options_(options) {}

Mapper::Mapper(ZoneEngineFactory zone_engines, MapperOptions options)
    : zone_engines_(std::move(zone_engines)), options_(options) {
  assert(zone_engines_ != nullptr);
}

Mapper& Mapper::set_progress(std::function<void(const ZoneProgress&)> progress) {
  progress_ = std::move(progress);
  return *this;
}

Mapper& Mapper::set_batch_progress(std::function<void(const BatchProgress&)> progress) {
  batch_progress_ = std::move(progress);
  return *this;
}

void Mapper::report(const ZoneProgress& progress) const {
  if (!progress_) return;
  std::lock_guard<std::mutex> lock(progress_mutex_);
  progress_(progress);
}

void Mapper::report(const BatchProgress& progress) const {
  if (!batch_progress_) return;
  std::lock_guard<std::mutex> lock(progress_mutex_);
  batch_progress_(progress);
}

std::vector<ProbeExperimentOutcome> Mapper::run_phase_batch(
    ProbeEngine& engine, const BatchContext& ctx, const std::string& stage,
    const std::string& label, const std::vector<ProbeExperiment>& experiments,
    bool credit_makespan, double* makespan_out) const {
  if (experiments.empty()) {
    if (makespan_out != nullptr) *makespan_out = 0.0;
    return {};
  }
  const auto workers = static_cast<std::size_t>(std::max(options_.probe_jobs, 1));
  // Batch events only when batching can matter (see BatchProgress).
  const bool announce = workers > 1 && experiments.size() >= 2;
  BatchProgress progress;
  progress.zone_index = ctx.zone_index;
  if (ctx.zone_name != nullptr) progress.zone_name = *ctx.zone_name;
  progress.stage = stage;
  progress.label = label;
  progress.experiments = experiments.size();
  progress.workers = workers;
  if (announce) report(progress);

  auto outcomes =
      options_.virtual_scheduler != nullptr
          ? run_batch_virtual(engine, experiments, workers, *options_.virtual_scheduler)
          : engine.run_batch(experiments, workers);
  std::vector<double> durations;
  durations.reserve(outcomes.size());
  double sequential_s = 0.0;
  for (const auto& outcome : outcomes) {
    durations.push_back(outcome.duration_s);
    sequential_s += outcome.duration_s;
  }
  const double makespan_s = batch_makespan(experiments, durations, workers);
  if (makespan_out != nullptr) *makespan_out = makespan_s;
  if (ctx.stats != nullptr) {
    ++ctx.stats->batches;
    ctx.stats->batched_experiments += experiments.size();
    ctx.stats->sequential_s += sequential_s;
    if (credit_makespan) ctx.stats->makespan_s += makespan_s;
  }
  if (announce) {
    progress.phase = BatchProgress::Phase::finished;
    progress.sequential_s = sequential_s;
    progress.makespan_s = makespan_s;
    report(progress);
  }
  return outcomes;
}

Mapper::ZoneHosts::ZoneHosts(std::vector<MachineInfo> machines)
    : all(std::move(machines)), bw(all.size(), 0.0), reverse_bw(all.size(), 0.0) {
  by_fqdn.reserve(all.size());
  by_ip.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    by_fqdn.try_emplace(all[i].fqdn, i);
    by_ip.try_emplace(all[i].identity.ip, i);
  }
}

std::vector<EnvNetwork> Mapper::refine(ProbeEngine& engine, const BatchContext& ctx,
                                       ZoneHosts& hosts,
                                       const std::vector<std::size_t>& machines,
                                       const MachineInfo& master, const std::string& label,
                                       const std::string& label_ip,
                                       std::vector<std::string>& warnings) const {
  const std::vector<MachineInfo>& all = hosts.all;
  // Split the node's machines into the master (not measurable from
  // itself) and the measurable members.
  std::vector<std::size_t> members;
  bool contains_master = false;
  for (const std::size_t idx : machines) {
    if (all[idx].is_master) {
      contains_master = true;
    } else {
      members.push_back(idx);
    }
  }

  // Phases 2a-2c issue their experiments through ProbeEngine::run_batch
  // in the CANONICAL order — exactly the sequence the sequential
  // schedule would have used — so the experiment stream, every recorded
  // trace and the MapResult are bit-identical for any probe_jobs value;
  // only the modeled schedule cost (BatchStats) changes.

  // ---- phase 2a: host-to-host bandwidth -------------------------------
  // All experiments pivot on the master, so none of them may overlap:
  // the batch degenerates to the sequential schedule (the endpoint
  // constraint in batch_makespan guarantees it), but keeps the uniform
  // batch path for engines, traces and events.
  std::vector<double>& bw = hosts.bw;
  std::vector<double>& reverse_bw = hosts.reverse_bw;
  {
    std::vector<ProbeExperiment> experiments;
    for (const std::size_t idx : members) {
      experiments.push_back(ProbeExperiment::single(master.given_name, all[idx].given_name));
      // Extension (§4.3 future work): probe the reverse direction too, so
      // asymmetric routes become visible in the effective view.
      if (options_.bidirectional_probes) {
        experiments.push_back(ProbeExperiment::single(all[idx].given_name, master.given_name));
      }
    }
    const auto outcomes = run_phase_batch(engine, ctx, "host-bw", label, experiments,
                                          /*credit_makespan=*/true, nullptr);
    std::size_t at = 0;
    for (const std::size_t idx : members) {
      const Result<double>& measured = outcomes[at++].results.front();
      if (measured.ok()) {
        bw[idx] = measured.value();
      } else {
        warnings.push_back("bandwidth " + master.fqdn + " -> " + all[idx].fqdn +
                           " failed: " + measured.error().to_string());
        bw[idx] = 0.0;
      }
      if (options_.bidirectional_probes) {
        const Result<double>& back = outcomes[at++].results.front();
        reverse_bw[idx] = back.ok() ? back.value() : 0.0;
      }
    }
  }
  // Group members whose bandwidth to the master is within the x3 ratio.
  std::vector<std::size_t> ordered = members;
  std::sort(ordered.begin(), ordered.end(), [&](std::size_t a, std::size_t b) {
    if (bw[a] != bw[b]) return bw[a] > bw[b];
    return all[a].fqdn < all[b].fqdn;  // deterministic
  });
  std::vector<std::vector<std::size_t>> groups;
  for (const std::size_t idx : ordered) {
    if (!groups.empty()) {
      const double group_max = bw[groups.back().front()];
      if (bw[idx] > 0.0 && group_max / bw[idx] <= options_.bw_split_ratio) {
        groups.back().push_back(idx);
        continue;
      }
    }
    groups.push_back({idx});
  }
  if (groups.empty()) groups.push_back({});  // master-only node

  // ---- phase 2b: pairwise host bandwidth ------------------------------
  // All groups' experiments are issued as ONE batch in canonical order —
  // group by group, i<j within each group, exactly the sequence the
  // sequential schedule uses, so the experiment stream and every
  // recorded trace stay bit-identical. Every experiment sends two
  // concurrent transfers from the master, so WITHIN a group nothing can
  // overlap; ACROSS groups a multi-homed master serves each group
  // through the adapter facing it, and tagging the transfers with that
  // adapter (`via`) is what lets the merged batch credit the overlap.
  // On a single-homed master all tags collapse and the batch degenerates
  // to the sequential schedule exactly as before.

  // The master's adapter addresses, primary first.
  std::vector<std::string> master_adapters;
  if (!master.identity.ip.empty()) master_adapters.push_back(master.identity.ip);
  for (const auto& extra : master.identity.extra_ips) master_adapters.push_back(extra);
  const auto group_via = [&](const std::vector<std::size_t>& group) -> std::string {
    if (master_adapters.size() < 2 || group.empty()) return "";
    // The adapter facing the group: the master address on the classful
    // network of the group's members; unknown -> the primary adapter,
    // so unmatched groups still serialize against each other.
    const auto member_net = simnet::Ipv4::parse(all[group.front()].identity.ip);
    if (member_net.ok()) {
      for (const auto& addr : master_adapters) {
        const auto parsed = simnet::Ipv4::parse(addr);
        if (parsed.ok() && parsed.value().same_classful_network(member_net.value())) return addr;
      }
    }
    return master_adapters.front();
  };

  // When a group's full pairwise count exceeds MapperOptions::
  // max_pairwise, only per-bucket representatives run the full protocol
  // (see options.hpp): the group is bucketed by its 2a bandwidth
  // signature, confident members inherit their nearest representative's
  // placement transitively, and the rest escalate to one direct
  // member-vs-representative probe each. An escalation IS an ordinary
  // pairwise experiment, so verdict processing below is uniform.
  struct PairProbe {
    std::size_t group;  ///< index into `groups`
    std::size_t i, j;   ///< member positions within the group
  };
  std::vector<ProbeExperiment> experiments;
  std::vector<PairProbe> probes;
  std::vector<UnionFind> components;
  components.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    components.emplace_back(group.size());
    if (group.size() < 2) continue;
    const std::string via = group_via(group);
    const auto pair_experiment = [&](std::size_t i, std::size_t j) {
      experiments.push_back(ProbeExperiment::concurrent(
          {BandwidthRequest{master.given_name, all[group[i]].given_name, via},
           BandwidthRequest{master.given_name, all[group[j]].given_name, via}}));
      probes.push_back(PairProbe{g, i, j});
    };
    const std::uint64_t full_pairs =
        static_cast<std::uint64_t>(group.size()) * (group.size() - 1) / 2;
    if (options_.max_pairwise <= 0 ||
        full_pairs <= static_cast<std::uint64_t>(options_.max_pairwise)) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        for (std::size_t j = i + 1; j < group.size(); ++j) pair_experiment(i, j);
      }
      continue;
    }

    // --- sampled interrogation of this group ---
    // Signature buckets: the group is ordered by descending 2a
    // bandwidth, so buckets are runs within the square of the
    // confidence ratio of their leader. A zero-bandwidth member can
    // neither be inferred nor usefully probed: it stays a singleton,
    // exactly the verdict the full protocol reaches (a 0-bandwidth
    // member never measures as dependent).
    const double confidence = std::max(1.0, options_.sample_confidence_ratio);
    const double bucket_ratio = confidence * confidence;
    std::vector<std::vector<std::size_t>> buckets;
    std::size_t zero_members = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const double value = bw[group[i]];
      if (value <= 0.0) {
        ++zero_members;
        continue;
      }
      if (!buckets.empty() && bw[group[buckets.back().front()]] / value <= bucket_ratio) {
        buckets.back().push_back(i);
      } else {
        buckets.push_back({i});
      }
    }

    // Representative budget: the largest k with k*(k-1)/2 experiments
    // inside max_pairwise, floored at one representative per bucket
    // (the bucket count is bounded by the signature geometry — the
    // group spans at most bw_split_ratio — never by the group size).
    std::size_t rep_budget = 2;
    while ((rep_budget + 1) * rep_budget / 2 <=
           static_cast<std::uint64_t>(options_.max_pairwise)) {
      ++rep_budget;
    }
    std::vector<char> is_rep(group.size(), 0);
    for (const auto& bucket : buckets) is_rep[bucket.front()] = 1;  // bucket leaders
    std::size_t rep_count = buckets.size();
    // Extra representative slots go round-robin over the buckets, each
    // picked deterministically from the sampling seed.
    Rng rng(options_.sample_seed ^ hash::fnv1a64(label));
    while (rep_count < rep_budget) {
      bool placed = false;
      for (const auto& bucket : buckets) {
        if (rep_count >= rep_budget) break;
        std::vector<std::size_t> candidates;
        for (const std::size_t i : bucket) {
          if (!is_rep[i]) candidates.push_back(i);
        }
        if (candidates.empty()) continue;
        is_rep[candidates[rng.next_below(candidates.size())]] = 1;
        ++rep_count;
        placed = true;
      }
      if (!placed) break;
    }

    // Full pairwise protocol among the representatives, canonical order.
    std::vector<std::size_t> reps;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (is_rep[i]) reps.push_back(i);
    }
    std::vector<std::vector<std::size_t>> bucket_reps(buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      for (const std::size_t i : buckets[b]) {
        if (is_rep[i]) bucket_reps[b].push_back(i);
      }
    }
    for (std::size_t a = 0; a < reps.size(); ++a) {
      for (std::size_t b = a + 1; b < reps.size(); ++b) pair_experiment(reps[a], reps[b]);
    }

    // Transitive inference + escalation for everyone else: a member
    // whose bandwidth sits within the confidence ratio of its bucket's
    // nearest representative inherits that representative's placement
    // without a probe; the rest get one direct pairwise check each.
    std::size_t inferred = 0;
    std::size_t escalated = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      for (const std::size_t m : buckets[b]) {
        if (is_rep[m]) continue;
        std::size_t nearest = buckets[b].front();
        double nearest_ratio = std::numeric_limits<double>::infinity();
        for (const std::size_t r : bucket_reps[b]) {
          const double lo = std::min(bw[group[m]], bw[group[r]]);
          const double hi = std::max(bw[group[m]], bw[group[r]]);
          const double ratio = lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
          if (ratio < nearest_ratio) {
            nearest_ratio = ratio;
            nearest = r;
          }
        }
        if (nearest_ratio <= confidence) {
          components[g].unite(m, nearest);
          ++inferred;
        } else {
          pair_experiment(std::min(m, nearest), std::max(m, nearest));
          ++escalated;
        }
      }
    }
    if (ctx.sampling != nullptr) {
      ++ctx.sampling->sampled_groups;
      ctx.sampling->representatives += reps.size();
      ctx.sampling->inferred_members += inferred + zero_members;
      ctx.sampling->escalated_members += escalated;
    }
  }

  const auto outcomes = run_phase_batch(engine, ctx, "pairwise", label, experiments,
                                        /*credit_makespan=*/true, nullptr);
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const auto& [g, i, j] = probes[p];
    const auto& group = groups[g];
    const auto& paired = outcomes[p].results;
    if (!paired[0].ok() || !paired[1].ok()) {
      warnings.push_back("pairwise test " + all[group[i]].fqdn + "/" +
                         all[group[j]].fqdn + " failed");
      continue;
    }
    const double ratio_i =
        paired[0].value() > 0.0 ? bw[group[i]] / paired[0].value() : 0.0;
    const double ratio_j =
        paired[1].value() > 0.0 ? bw[group[j]] / paired[1].value() : 0.0;
    // Dependent (keep together) when either transfer slowed down by
    // at least the threshold factor while paired.
    if (ratio_i >= options_.pairwise_independence_ratio ||
        ratio_j >= options_.pairwise_independence_ratio) {
      components[g].unite(i, j);
    }
  }
  std::vector<std::vector<std::size_t>> clusters;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    if (group.empty()) {
      clusters.push_back({});
      continue;
    }
    std::map<std::size_t, std::vector<std::size_t>> by_root;
    for (std::size_t i = 0; i < group.size(); ++i) {
      by_root[components[g].find(i)].push_back(group[i]);
    }
    for (auto& [root, cluster_members] : by_root) clusters.push_back(cluster_members);
  }

  // The master lives in the first cluster of its node (or its own).
  std::size_t master_cluster = clusters.size();
  if (contains_master) {
    if (clusters.empty() || (clusters.size() == 1 && clusters[0].empty())) {
      clusters.assign(1, {});
      master_cluster = 0;
    } else {
      master_cluster = 0;
    }
  }

  // ---- phases 2c + 2d per cluster --------------------------------------
  std::vector<EnvNetwork> networks;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const auto& cluster = clusters[c];
    EnvNetwork net;
    net.label = clusters.size() > 1 ? label + "#" + std::to_string(c + 1) : label;
    net.label_ip = label_ip;
    for (const std::size_t idx : cluster) net.machines.push_back(all[idx].fqdn);
    const bool has_master = contains_master && c == master_cluster;
    if (has_master) net.machines.push_back(master.fqdn);
    std::sort(net.machines.begin(), net.machines.end());

    std::vector<double> member_bws;
    for (const std::size_t idx : cluster) member_bws.push_back(bw[idx]);
    net.base_bw_bps = median_of(member_bws);
    if (options_.bidirectional_probes && !cluster.empty()) {
      std::vector<double> member_reverse;
      for (const std::size_t idx : cluster) member_reverse.push_back(reverse_bw[idx]);
      net.base_reverse_bw_bps = median_of(member_reverse);
      const double lo = std::min(net.base_bw_bps, net.base_reverse_bw_bps);
      const double hi = std::max(net.base_bw_bps, net.base_reverse_bw_bps);
      net.route_asymmetric = lo > 0.0 && hi / lo >= kAsymmetryRatio;
    }

    // Lone machine (and no master next to it): no LAN to characterize.
    if (cluster.size() + (has_master ? 1 : 0) < 2) {
      net.kind = NetKind::structural;
      networks.push_back(std::move(net));
      continue;
    }

    // ---- phase 2c: internal host bandwidth ----------------------------
    // This is THE batchable phase: member<->member transfers with
    // disjoint endpoint pairs do not share a switch port, so on a
    // switched segment they could genuinely run `probe_jobs` at a time.
    // Whether the segment IS switched is only established by phase 2d
    // below, so the makespan credit is deferred until that verdict.
    std::vector<ProbeExperiment> experiments;
    const std::uint64_t full_internal =
        static_cast<std::uint64_t>(cluster.size()) * (cluster.size() - 1) / 2;
    if (options_.max_pairwise <= 0 ||
        full_internal <= static_cast<std::uint64_t>(options_.max_pairwise)) {
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        for (std::size_t j = i + 1; j < cluster.size(); ++j) {
          experiments.push_back(
              ProbeExperiment::single(all[cluster[i]].given_name, all[cluster[j]].given_name));
        }
      }
    } else {
      // Sampled internal interrogation: max_pairwise distinct member
      // pairs, drawn deterministically from the sampling seed (pair
      // count >> sample size, so rejection sampling converges fast) and
      // issued in ascending pair-index order — a canonical-order
      // subsequence of the full enumeration. The median below is then
      // over the sample instead of every pair.
      Rng rng(options_.sample_seed ^ hash::fnv1a64(net.label) ^ 0x9e3779b97f4a7c15ULL);
      std::set<std::uint64_t> picked;
      while (picked.size() < static_cast<std::size_t>(options_.max_pairwise)) {
        picked.insert(rng.next_below(full_internal));
      }
      for (const std::uint64_t pair_index : picked) {
        std::uint64_t remaining = pair_index;
        std::size_t i = 0;
        while (remaining >= cluster.size() - 1 - i) {
          remaining -= cluster.size() - 1 - i;
          ++i;
        }
        const std::size_t j = i + 1 + static_cast<std::size_t>(remaining);
        experiments.push_back(
            ProbeExperiment::single(all[cluster[i]].given_name, all[cluster[j]].given_name));
      }
      if (ctx.sampling != nullptr) {
        ++ctx.sampling->sampled_clusters;
        ctx.sampling->sampled_internal_pairs += picked.size();
      }
    }
    double internal_makespan_s = 0.0;
    const auto outcomes = run_phase_batch(engine, ctx, "internal", net.label, experiments,
                                          /*credit_makespan=*/false, &internal_makespan_s);
    double internal_sequential_s = 0.0;
    std::vector<double> internal;
    for (const auto& outcome : outcomes) {
      internal_sequential_s += outcome.duration_s;
      const Result<double>& measured = outcome.results.front();
      if (measured.ok()) internal.push_back(measured.value());
    }
    if (internal.empty() && has_master && !cluster.empty()) {
      // Master + one member: the master->member bandwidth IS the local one.
      internal.push_back(bw[cluster.front()]);
    }
    net.base_local_bw_bps = median_of(internal);

    // ---- phase 2d: jammed bandwidth ------------------------------------
    std::vector<double> ratios;
    for (int rep = 0; rep < options_.jam_repetitions; ++rep) {
      // Rotate the measured member A; pick the jamming pair among the
      // remaining machines of the cluster (falling back to A itself as
      // the jam source for two-machine clusters: A->B while master->A).
      const std::size_t a = cluster[static_cast<std::size_t>(rep) % cluster.size()];
      std::string jam_from;
      std::string jam_to;
      std::vector<std::size_t> others;
      for (const std::size_t idx : cluster) {
        if (idx != a) others.push_back(idx);
      }
      if (others.size() >= 2) {
        jam_from = all[others[static_cast<std::size_t>(rep) % others.size()]].given_name;
        jam_to = all[others[(static_cast<std::size_t>(rep) + 1) % others.size()]].given_name;
      } else if (others.size() == 1) {
        jam_from = all[a].given_name;
        jam_to = all[others[0]].given_name;
      } else if (has_master) {
        jam_from = all[a].given_name;
        jam_to = master.given_name;
      } else {
        break;  // single machine: no jam experiment possible
      }
      const auto outcome = engine.concurrent_bandwidth(
          {BandwidthRequest{master.given_name, all[a].given_name, {}},
           BandwidthRequest{jam_from, jam_to, {}}});
      if (!outcome[0].ok()) {
        warnings.push_back("jam test on " + net.label + " failed");
        continue;
      }
      const double base = bw[a];
      if (base > 0.0) ratios.push_back(outcome[0].value() / base);
    }
    if (ratios.empty()) {
      net.kind = NetKind::inconclusive;
    } else {
      const double avg = stats::mean(ratios);
      if (avg < options_.jam_shared_max) {
        net.kind = NetKind::shared;
      } else if (avg > options_.jam_switched_min) {
        net.kind = NetKind::switched;
      } else {
        net.kind = NetKind::inconclusive;  // "data gathering stops"
      }
    }
    // The deferred phase-2c credit: only a segment whose jam verdict
    // came out switched has ENV's own evidence that the disjoint
    // internal transfers would not have contended; on a shared (or
    // inconclusive) medium the batched schedule buys nothing.
    if (ctx.stats != nullptr) {
      ctx.stats->makespan_s +=
          net.kind == NetKind::switched ? internal_makespan_s : internal_sequential_s;
    }
    networks.push_back(std::move(net));
  }
  return networks;
}

EnvNetwork Mapper::convert(ProbeEngine& engine, const BatchContext& ctx,
                           const StructuralNode& node, ZoneHosts& hosts,
                           const MachineInfo& master, std::vector<std::string>& warnings,
                           bool is_root) const {
  // Indices of the machines attached directly to this structural node.
  std::vector<std::size_t> attached;
  for (const auto& fqdn : node.machines) {
    if (const auto it = hosts.by_fqdn.find(fqdn); it != hosts.by_fqdn.end()) {
      attached.push_back(it->second);
    }
  }

  std::vector<EnvNetwork> clusters;
  if (!attached.empty()) {
    clusters = refine(engine, ctx, hosts, attached, master, node.display(), node.ip, warnings);
  }

  std::vector<EnvNetwork> child_networks;
  for (const auto& child : node.children) {
    EnvNetwork converted = convert(engine, ctx, child, hosts, master, warnings, false);
    // The attachment point may itself be a mapped machine (a gateway):
    // record it so the merge and the planner can nest correctly. That is
    // the first machine with the child's address or name.
    if (converted.gateway.empty()) {
      std::size_t gateway = hosts.all.size();
      if (const auto it = hosts.by_ip.find(child.ip); it != hosts.by_ip.end()) {
        gateway = it->second;
      }
      if (const auto it = hosts.by_fqdn.find(child.name); it != hosts.by_fqdn.end()) {
        gateway = std::min(gateway, it->second);
      }
      if (gateway < hosts.all.size()) converted.gateway = hosts.all[gateway].fqdn;
    }
    child_networks.push_back(std::move(converted));
  }

  // Collapse: a structural node with exactly one cluster and no children
  // IS that cluster ("some routers are suppressed from the effective
  // network view"); a machine-less chain node collapses into its only
  // child, keeping the deeper (more specific) label.
  if (!is_root && clusters.size() == 1 && child_networks.empty()) {
    return std::move(clusters.front());
  }
  if (!is_root && clusters.empty() && child_networks.size() == 1) {
    return std::move(child_networks.front());
  }

  EnvNetwork out;
  out.kind = NetKind::structural;
  out.label = node.display();
  out.label_ip = node.ip;
  for (auto& cluster : clusters) out.children.push_back(std::move(cluster));
  for (auto& child : child_networks) out.children.push_back(std::move(child));
  return out;
}

Result<ZoneMapResult> Mapper::map_zone(const ZoneSpec& spec, std::size_t zone_index) {
  if (engine_ != nullptr) return map_zone_with(*engine_, spec, zone_index);
  auto engine = zone_engines_(spec, zone_index);
  if (engine == nullptr) return null_engine_error(spec);
  return map_zone_with(*engine, spec, zone_index);
}

Result<ZoneMapResult> Mapper::map_zone_with(ProbeEngine& engine, const ZoneSpec& spec,
                                            std::size_t zone_index) const {
  if (spec.hostnames.empty()) {
    return make_error(ErrorCode::invalid_argument, "zone has no hosts");
  }
  const ProbeStats before = engine.stats();
  ZoneMapResult result;
  result.spec = spec;

  // ---- phase 1a/1b: lookup + properties --------------------------------
  std::vector<MachineInfo> machines;
  for (const auto& hostname : spec.hostnames) {
    const auto identity = engine.lookup(hostname);
    if (!identity.ok()) {
      result.warnings.push_back("lookup failed for '" + hostname +
                                "': " + identity.error().to_string());
      continue;
    }
    MachineInfo info;
    info.given_name = hostname;
    info.identity = identity.value();
    info.fqdn = info.identity.fqdn.empty() ? info.identity.ip : info.identity.fqdn;
    info.is_master = (hostname == spec.master);
    machines.push_back(std::move(info));
  }
  const auto master_it = std::find_if(machines.begin(), machines.end(),
                                      [](const MachineInfo& m) { return m.is_master; });
  if (master_it == machines.end()) {
    return make_error(ErrorCode::invalid_argument,
                      "master '" + spec.master + "' is not among the mapped hosts");
  }
  const MachineInfo master = *master_it;
  result.master_fqdn = master.fqdn;
  ZoneHosts hosts(std::move(machines));

  // SITE grouping.
  std::map<std::string, gridml::Site> sites;
  for (const auto& machine : hosts.all) {
    const std::string domain = site_key(machine.identity);
    auto [it, inserted] = sites.try_emplace(domain);
    if (inserted) {
      it->second.domain = domain;
      it->second.label = site_label_from_domain(domain);
    }
    gridml::Machine entry;
    entry.name = machine.fqdn;
    entry.ip = machine.identity.ip;
    // Short alias: first label of the fqdn, as the paper's listings do.
    const auto labels = strings::split_nonempty(machine.fqdn, '.');
    if (labels.size() > 1) entry.aliases.push_back(labels.front());
    for (const auto& [key, value] : machine.identity.properties) {
      entry.properties.push_back(gridml::Property{key, value, ""});
    }
    it->second.machines.push_back(std::move(entry));
  }
  for (auto& [domain, site] : sites) result.grid.sites.push_back(std::move(site));

  // ---- phase 1c: structural topology -----------------------------------
  std::vector<HostTrace> traces;
  for (const auto& machine : hosts.all) {
    HostTrace trace;
    trace.fqdn = machine.fqdn;
    const auto hops = engine.traceroute(machine.given_name, spec.traceroute_target);
    if (hops.ok()) {
      trace.hops = hops.value();
    } else {
      result.warnings.push_back("traceroute from " + machine.fqdn +
                                " failed: " + hops.error().to_string());
    }
    traces.push_back(std::move(trace));
  }
  result.structural = build_structural_tree(traces);

  // ---- phase 2: master-dependent refinements ---------------------------
  BatchContext ctx;
  ctx.zone_index = zone_index;
  ctx.zone_name = &spec.zone_name;
  ctx.stats = &result.batch;
  ctx.sampling = &result.sampling;
  result.root = convert(engine, ctx, result.structural, hosts, master, result.warnings, true);

  const ProbeStats after = engine.stats();
  result.stats.experiments = after.experiments - before.experiments;
  result.stats.bytes_sent = after.bytes_sent - before.bytes_sent;
  result.stats.duration_s = after.busy_time_s - before.busy_time_s;
  return result;
}

namespace {

/// A machine set to look for, as sorted distinct names, and one mark per
/// name reused at every network visited.
struct MachineSet {
  std::vector<std::string> names;
  std::vector<char> seen;

  explicit MachineSet(const std::vector<std::string>& machines)
      : names(machines) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    seen.resize(names.size());
  }

  /// Whether `machines`, as a set, is exactly this set.
  bool equals(const std::vector<std::string>& machines) {
    if (machines.size() < names.size()) return false;
    std::fill(seen.begin(), seen.end(), 0);
    std::size_t distinct = 0;
    for (const auto& machine : machines) {
      const auto it = std::lower_bound(names.begin(), names.end(), machine);
      if (it == names.end() || *it != machine) return false;
      char& mark = seen[static_cast<std::size_t>(it - names.begin())];
      distinct += mark == 0 ? 1 : 0;
      mark = 1;
    }
    return distinct == names.size();
  }
};

/// Deepest mutable network with exactly the given machine set.
EnvNetwork* find_matching(EnvNetwork& root, MachineSet& machine_set) {
  for (auto& child : root.children) {
    if (EnvNetwork* hit = find_matching(child, machine_set)) return hit;
  }
  if (!root.machines.empty() && machine_set.equals(root.machines)) return &root;
  return nullptr;
}

/// Fold one secondary-zone network (and its subtree) into the merged view.
void merge_network(EnvNetwork& merged_root, EnvNetwork&& incoming,
                   std::vector<std::string>& warnings) {
  if (incoming.kind == NetKind::structural && incoming.machines.empty()) {
    for (auto& child : incoming.children) {
      merge_network(merged_root, std::move(child), warnings);
    }
    return;
  }
  MachineSet machine_set(incoming.machines);
  if (EnvNetwork* existing = find_matching(merged_root, machine_set)) {
    // Both zones observed this segment. The zone that measured the higher
    // bandwidth had the unobstructed (local) viewpoint: its shared /
    // switched verdict and local bandwidth win; the primary zone's
    // base_bw is kept because the deployment viewpoint is the primary
    // master (this is how the paper can report hub2 as a 100 Mbps hub
    // reached through a 10 Mbps bottleneck).
    if (incoming.base_bw_bps > existing->base_bw_bps) {
      existing->kind = incoming.kind;
      if (incoming.base_local_bw_bps > 0.0) {
        existing->base_local_bw_bps = incoming.base_local_bw_bps;
      }
    } else if (existing->kind == NetKind::structural || existing->kind == NetKind::inconclusive) {
      existing->kind = incoming.kind;
    }
    if (existing->base_local_bw_bps == 0.0) {
      existing->base_local_bw_bps = incoming.base_local_bw_bps;
    }
    for (auto& child : incoming.children) {
      merge_network(merged_root, std::move(child), warnings);
    }
    return;
  }
  // New segment: hang it under the network containing its gateway.
  EnvNetwork* parent = nullptr;
  if (!incoming.gateway.empty()) {
    parent = merged_root.find_containing(incoming.gateway);
  }
  if (parent == nullptr) {
    if (!incoming.gateway.empty()) {
      warnings.push_back("gateway " + incoming.gateway +
                         " of segment '" + incoming.label + "' not in merged view; "
                         "attaching at root");
    }
    parent = &merged_root;
  }
  parent->children.push_back(std::move(incoming));
}

}  // namespace

std::vector<Result<ZoneMapResult>> Mapper::map_zones(const std::vector<ZoneSpec>& specs) {
  const auto run_zone = [this](ProbeEngine& engine, const ZoneSpec& spec,
                               std::size_t index) -> Result<ZoneMapResult> {
    report(ZoneProgress{ZoneProgress::Phase::started, index, spec.zone_name,
                        std::to_string(spec.hostnames.size()) + " host(s), master " + spec.master});
    auto zone = map_zone_with(engine, spec, index);
    if (zone.ok()) {
      report(ZoneProgress{ZoneProgress::Phase::finished, index, spec.zone_name,
                          std::to_string(zone.value().stats.experiments) + " experiments, " +
                              strings::format_double(zone.value().stats.duration_s / 60.0, 1) +
                              " min"});
    } else {
      report(ZoneProgress{ZoneProgress::Phase::failed, index, spec.zone_name,
                          zone.error().to_string()});
    }
    return zone;
  };
  // Resolve this zone's engine (shared or per-zone) and map it; a
  // factory returning nullptr fails the zone like any other error —
  // including the Phase::failed progress report.
  const auto run_indexed = [this, &specs, &run_zone](std::size_t i) -> Result<ZoneMapResult> {
    if (engine_ != nullptr) return run_zone(*engine_, specs[i], i);
    auto engine = zone_engines_(specs[i], i);
    if (engine == nullptr) {
      const Error error = null_engine_error(specs[i]);
      report(ZoneProgress{ZoneProgress::Phase::failed, i, specs[i].zone_name, error.to_string()});
      return error;
    }
    return run_zone(*engine, specs[i], i);
  };

  std::vector<std::optional<Result<ZoneMapResult>>> slots(specs.size());
  const std::size_t workers =
      zone_engines_ == nullptr
          ? 1
          : std::min<std::size_t>(std::max(options_.map_threads, 1), specs.size());
  if (workers > 1) {
    ThreadPool pool(workers, options_.virtual_scheduler);
    pool.parallel_for(specs.size(), [&](std::size_t i) { slots[i] = run_indexed(i); });
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) slots[i] = run_indexed(i);
  }

  std::vector<Result<ZoneMapResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

Result<MapResult> Mapper::map(const std::vector<ZoneSpec>& specs,
                              const std::vector<gridml::AliasGroup>& gateway_aliases) {
  if (specs.empty()) {
    return make_error(ErrorCode::invalid_argument, "no zones to map");
  }
  auto zone_results = map_zones(specs);

  // The merge — and error reporting — happens in spec order regardless of
  // zone completion order, so the result is identical for any map_threads.
  MapResult result;
  std::vector<gridml::GridDoc> docs;
  std::vector<double> zone_durations;
  for (auto& zone : zone_results) {
    if (!zone.ok()) return zone.error();
    result.stats.experiments += zone.value().stats.experiments;
    result.stats.bytes_sent += zone.value().stats.bytes_sent;
    result.batch += zone.value().batch;
    result.sampling += zone.value().sampling;
    zone_durations.push_back(zone.value().stats.duration_s);
    for (const auto& warning : zone.value().warnings) result.warnings.push_back(warning);
    docs.push_back(std::exchange(zone.value().grid, {}));
    result.zones.push_back(std::move(zone.value()));
  }
  const std::size_t workers =
      zone_engines_ == nullptr ? 1 : static_cast<std::size_t>(std::max(options_.map_threads, 1));
  result.stats.duration_s = schedule_makespan(zone_durations, workers);

  auto merged = gridml::merge(std::move(docs), gateway_aliases);
  if (!merged.ok()) return merged.error();
  result.grid = std::move(merged.value());

  // MapResult::canonical for every name of every tree, through one index.
  const gridml::NameIndex names = result.grid.name_index();
  const auto canon = [&names](const std::string& name) {
    const gridml::Machine* machine = names.find(name);
    return machine != nullptr ? machine->name : name;
  };
  result.master_fqdn = canon(result.zones.front().master_fqdn);

  // Canonicalize every zone tree, then fold secondaries into the primary.
  // The zones keep their own trees (the digest renders them), so each is
  // copied once.
  result.root = result.zones.front().root;
  canonicalize(result.root, canon);
  for (std::size_t z = 1; z < result.zones.size(); ++z) {
    EnvNetwork incoming = result.zones[z].root;
    canonicalize(incoming, canon);
    merge_network(result.root, std::move(incoming), result.warnings);
  }
  result.grid.networks.push_back(result.root.to_xml());
  return result;
}

}  // namespace envnws::env
