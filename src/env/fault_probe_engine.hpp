// Deterministic fault injection for probe streams.
//
// Failure paths of the mapper — lookups that never resolve, bandwidth
// probes that time out, jam tests that collapse — are hard to reach from
// well-formed scenarios. `FaultInjectingProbeEngine` wraps any
// `ProbeEngine` and perturbs or fails selected experiments according to
// a `FaultSpec`, a compact rule string (grammar in docs/TESTING.md):
//
//     fault-rules := rule { "," rule }
//     rule        := kind selector "=" action
//     kind        := "lookup" | "trace" | "bw" | "cbw" | "any"
//     selector    := "#" N       -- exactly the Nth experiment (0-based)
//                  | "%" N       -- every Nth experiment (the N-1st, 2N-1st, ...)
//                  | "*"         -- every experiment
//     action      := "fail" [":" error-code]   -- default code: timeout
//                  | "scale" ":" factor        -- bw/cbw only: multiply results
//
// Experiment counting is per kind for the kind-specific rules and global
// for "any", always 0-based in call order. Counters live in the engine
// instance: concurrent zone mapping builds one engine per zone, so
// counting is per zone there — the deterministic choice (a shared
// counter across concurrently-probed zones would make fault placement
// depend on thread interleaving). A failed experiment never reaches the
// wrapped engine (no probe traffic, no stats), exactly like a real
// timeout that sends bytes into a black hole.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "env/probe_engine.hpp"
#include "env/trace_probe_engine.hpp"

namespace envnws::env {

struct FaultRule {
  enum class Select { index, every, all };
  enum class Action { fail, scale };

  /// The call kind the rule counts and matches; absent for "any".
  std::optional<TraceRecord::Kind> kind;
  Select select = Select::all;
  std::uint64_t n = 0;  ///< the index for "#N", the period for "%N"
  Action action = Action::fail;
  ErrorCode fail_code = ErrorCode::timeout;
  double factor = 1.0;

  /// Canonical rule text ("bw#3=fail:timeout").
  [[nodiscard]] std::string to_string() const;
  /// Does the rule select the `count`-th experiment of its kind?
  [[nodiscard]] bool selects(std::uint64_t count) const;
};

struct FaultSpec {
  std::vector<FaultRule> rules;

  /// Parse a rule list; `invalid_argument` on malformed rules (including
  /// scale actions on non-bandwidth kinds). The empty string is the
  /// empty spec.
  static Result<FaultSpec> parse(const std::string& text);
  [[nodiscard]] bool empty() const { return rules.empty(); }
};

class FaultInjectingProbeEngine final : public ProbeDecorator {
 public:
  FaultInjectingProbeEngine(std::unique_ptr<ProbeEngine> inner, FaultSpec spec);

  [[nodiscard]] ProbeStats stats() const override;

  /// Experiments failed, or with at least one result scaled, so far.
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  TraceRecord handle(TraceRecord call) override;
  /// First matching rule for this call (per-kind and global counters
  /// advance as a side effect), nullptr when the call passes through.
  const FaultRule* match(TraceRecord::Kind kind);

  std::unique_ptr<ProbeEngine> inner_;
  FaultSpec spec_;
  std::uint64_t count_global_ = 0;
  std::uint64_t count_kind_[4] = {0, 0, 0, 0};
  std::uint64_t injected_ = 0;
};

}  // namespace envnws::env
