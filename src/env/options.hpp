// Tunables of the ENV mapping methodology.
//
// The default values are the paper's experimentally-determined thresholds
// (§4.2.2). They are deliberately injectable: the threshold-ablation bench
// sweeps them to show where the paper's choices sit relative to the
// correct-classification plateau, and §4.3 warns they "may be specific to
// platform characteristics like the media type".
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace envnws::testing {
class VirtualScheduler;
}  // namespace envnws::testing

namespace envnws::env {

struct MapperOptions {
  /// §4.2.2.1 — split a cluster when two hosts' bandwidths to the master
  /// differ by more than this factor.
  double bw_split_ratio = 3.0;
  /// §4.2.2.2 — A is independent of B when
  /// Bandwidth(MA) / Bandwidth_paired(MA) stays below this.
  double pairwise_independence_ratio = 1.25;
  /// §4.2.2.4 — average jammed/base ratio below this means shared...
  double jam_shared_max = 0.7;
  /// ...above this means switched; in between the data is inconclusive
  /// and ENV stops gathering for the cluster.
  double jam_switched_min = 0.9;
  /// §4.2.2.4 — "this measure is repeated 5 times".
  int jam_repetitions = 5;

  /// Payload of each bandwidth probe.
  std::int64_t probe_bytes = units::mib(1);
  /// Settle time after each experiment (the reason the paper budgets
  /// half a minute per experiment for the naive approach).
  double stabilization_gap_s = 2.0;

  // --- extension: bidirectional probing (paper §4.3 lists asymmetric
  // route detection as undone future work: "Since ENV bandwidth tests
  // are conducted in only one way, the system cannot detect such
  // problems. Solving this ... is still to do.") ---
  /// Also measure host->master bandwidth in phase 2a (doubles the
  /// host-bandwidth experiment count), record the reverse medians and
  /// flag a network as route-asymmetric when forward and reverse base
  /// bandwidths differ by at least a factor of 1.5.
  bool bidirectional_probes = false;

  // --- extension: concurrent zone mapping (paper §4.2: each zone is an
  // independent ENV run; §4.3 merges the per-zone views only at the end,
  // so the runs can execute at the same time — one ENV instance per
  // firewall side instead of one after the other) ---
  /// Number of zones probed concurrently. Requires a per-zone engine
  /// (Mapper's zone-engine-factory constructor); ignored — mapping stays
  /// sequential — when the Mapper wraps a single shared ProbeEngine.
  /// Does not affect the mapping result, only how long it takes: the
  /// merged view is bit-identical for any thread count.
  int map_threads = 1;

  // --- extension: batched within-zone probe schedule (the experiments
  // of phases 2a-2c are issued through ProbeEngine::run_batch; disjoint
  // member pairs of one segment may overlap — see env/batch_schedule.hpp
  // and docs/ARCHITECTURE.md) ---
  /// Concurrent probe slots the batch schedule may use inside one zone.
  /// 1 = the paper's strictly sequential schedule. Like map_threads this
  /// never changes WHAT is measured — the experiment stream, the
  /// MapResult and its identity_digest() are bit-identical for any
  /// value — only the modeled schedule makespan (MapResult::batch)
  /// and, for batch-capable engines, the real wall-clock.
  int probe_jobs = 1;

  // --- extension: hierarchical sampled interrogation (the O(n²) wall:
  // phase 2b runs one experiment per member pair and 2c one per internal
  // pair, so a 10,000-host segment would need ~5x10^7 experiments; the
  // paper stops at tens of hosts for exactly this reason) ---
  /// Per-group / per-cluster pairwise experiment budget. 0 (the default)
  /// is the paper's full interrogation — bit-identical experiment
  /// stream and digest to every committed golden trace. When > 0, any
  /// phase-2b group (or 2c cluster) whose full pairwise count exceeds
  /// the budget switches to the sampled pipeline: members are bucketed
  /// by their phase-2a bandwidth signature (already measured — no extra
  /// probes), the full pairwise protocol runs only between per-bucket
  /// representatives, the remaining members inherit their nearest
  /// representative's placement transitively, and only members whose
  /// signature sits too far from every representative of their bucket
  /// escalate to one direct probe each. Experiment counts then grow
  /// ~O(n + k²) per segment instead of O(n²).
  int max_pairwise = 0;
  /// Seed of the deterministic representative / internal-pair sampling.
  /// Same zone + same seed ⇒ same representatives, same experiment
  /// stream, same identity_digest() — the sampled-mode stability
  /// contract tests and the map cache key on.
  std::uint64_t sample_seed = 1;
  /// Confidence threshold of the transitive inference: a member's
  /// placement is trusted when its 2a bandwidth is within this factor
  /// of its assigned representative's; signature buckets span at most
  /// the square of it. Members beyond the factor escalate to a direct
  /// pairwise probe against the representative.
  double sample_confidence_ratio = 1.25;

  // --- extension: deterministic schedule exploration (src/testing/) ---
  /// When set, every concurrency decision the mapper would leave to the
  /// OS — which zone's task a pool worker runs next, which experiment of
  /// a batch dispatches or completes first — is asked of this scheduler
  /// instead, so a test can replay or enumerate interleavings. The
  /// scheduler must outlive the mapping run. Null (the default) means
  /// real threads and real dispatch; production code never sets this.
  testing::VirtualScheduler* virtual_scheduler = nullptr;
};

}  // namespace envnws::env
