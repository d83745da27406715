// bench_e2e — the end-to-end benchmark: what mapping a platform, deploying
// NWS on it and running monitord cost a user, and which layer the time
// goes to. See README.md beside this file for the workloads and metrics.
//
//   bench_e2e --seed=<n> [--workload=<name>|all] [--seconds=<s>]
//             [--json=<path>] [--trace=<path>]
//
// Untraced (the default), a run reports the end-to-end metrics. With
// --trace it installs the instruments of trace.hpp, reports the
// per-layer metrics and writes every span to <path> as JSON lines.
// Each workload ends with one result line on stdout; the process exits
// non-zero when any output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

struct Workload {
  const char* name;
  void (*run)(const e2e::Options&, e2e::Run&);
};

constexpr Workload kWorkloads[] = {
    {"map-scale", e2e::map_scale},
    {"map-sampled", e2e::map_sampled},
    {"deploy-multizone", e2e::deploy_multizone},
    {"monitor-mixed", e2e::monitor_mixed},
};

int usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --seed=<n> [--workload=<name>|all] [--seconds=<s>]\n"
               "                 [--json=<path>] [--trace=<path>]\n"
               "workloads: map-scale map-sampled deploy-multizone monitor-mixed\n",
               error.c_str());
  return 2;
}

/// A seed: 1 to 15 decimal digits.
bool parse_seed(const std::string& text, std::uint64_t& value) {
  if (text.empty() || text.size() > 15 ||
      !std::all_of(text.begin(), text.end(), [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  value = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

/// A finite decimal number, nothing after it.
bool parse_seconds(const std::string& text, double& value) {
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(value);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Tracer::instance();  // binds this thread as the tracer's main thread
  std::string workload = "all";
  std::string json_path;
  std::string trace_path;
  e2e::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) { return arg.substr(std::string(prefix).size()); };
    if (arg.rfind("--workload=", 0) == 0) {
      workload = value("--workload=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_seed(value("--seed="), options.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg.rfind("--seconds=", 0) == 0) {
      if (!parse_seconds(value("--seconds="), options.seconds) || options.seconds <= 0 ||
          options.seconds > 3600) {
        return usage("bad --seconds");
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value("--json=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = value("--trace=");
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }
  if (!have_seed) return usage("--seed is required");
  options.traced = !trace_path.empty();

  std::vector<const Workload*> selected;
  for (const Workload& candidate : kWorkloads) {
    if (workload == "all" || workload == candidate.name) selected.push_back(&candidate);
  }
  if (selected.empty()) return usage("unknown workload '" + workload + "'");

  bool all_correct = true;
  std::vector<std::pair<std::string, std::vector<e2e::Span>>> traces;
  for (const Workload* selected_workload : selected) {
    e2e::Run run;
    run.workload = selected_workload->name;
    run.seed = options.seed;
    run.seconds = options.seconds;
    run.traced = options.traced;
    selected_workload->run(options, run);
    // Not gated: monitord's footprint grows with the cycles a timed run
    // gets through, so a faster daemon would read as a bigger one.
    run.detail("peak_rss_mib", e2e::peak_rss_mib(), "MiB");
    traces.emplace_back(run.workload, e2e::Tracer::instance().take());
    e2e::print_report(run);
    all_correct = all_correct && run.correct();
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::app);
      out << e2e::json_record(run) << "\n";
      if (!out) {
        std::fprintf(stderr, "bench_e2e: cannot append to %s\n", json_path.c_str());
        all_correct = false;
      }
    }
    std::printf("%s\n", e2e::result_line(run).c_str());
    std::fflush(stdout);
  }
  if (options.traced && !e2e::write_trace(trace_path, traces)) {
    std::fprintf(stderr, "bench_e2e: cannot write the trace to %s\n", trace_path.c_str());
    return 1;
  }
  return all_correct ? 0 : 1;
}
