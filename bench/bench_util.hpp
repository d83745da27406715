// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/scenario_registry.hpp"
#include "common/codec.hpp"
#include "simnet/scenario.hpp"

namespace envnws::bench {

/// Minimal JSON emitter for bench --json reports: no dependency, just
/// comma/nesting bookkeeping. The document root is an object; finish()
/// closes it and returns the text. Keys are emitter-controlled literals;
/// values are escaped.
class JsonWriter {
 public:
  JsonWriter() { first_.push_back(true); out_ = "{"; }

  JsonWriter& field(const std::string& key, const std::string& value) {
    pre(key);
    out_ += quoted(value);
    return *this;
  }
  JsonWriter& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonWriter& field(const std::string& key, double value) {
    pre(key);
    out_ += number(value);
    return *this;
  }
  JsonWriter& field(const std::string& key, std::uint64_t value) {
    pre(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& field(const std::string& key, int value) {
    pre(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& field(const std::string& key, bool value) {
    pre(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  /// Empty key: anonymous element (inside an array).
  JsonWriter& begin_object(const std::string& key = "") {
    pre(key);
    out_ += "{";
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end_object() {
    out_ += "}";
    first_.pop_back();
    return *this;
  }
  JsonWriter& begin_array(const std::string& key) {
    pre(key);
    out_ += "[";
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end_array() {
    out_ += "]";
    first_.pop_back();
    return *this;
  }
  /// Close the root object and return the document.
  [[nodiscard]] std::string finish() {
    out_ += "}\n";
    return out_;
  }

 private:
  void pre(const std::string& key) {
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
    if (!key.empty()) out_ += quoted(key) + ": ";
  }
  static std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"') {
        out += "\\\"";
      } else if (c == '\\') {
        out += "\\\\";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escape[8];
        std::snprintf(escape, sizeof(escape), "\\u%04x", static_cast<unsigned char>(c));
        out += escape;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  static std::string number(double value) {
    // JSON has no inf/nan literals.
    return std::isfinite(value) ? codec::format_full(value) : "null";
  }

  std::string out_;
  std::vector<bool> first_;  ///< per nesting level: no element emitted yet
};

inline void banner(const std::string& experiment_id, const std::string& paper_artifact,
                   const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — reproduces %s\n", experiment_id.c_str(), paper_artifact.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("==============================================================\n\n");
}

/// True when the spec is a template carrying a `{...}` placeholder
/// (e.g. "star-switch:{N}@100", "random-lan:{SEED}@100").
inline bool is_spec_template(const std::string& spec) {
  const auto open = spec.find('{');
  return open != std::string::npos && spec.find('}', open) != std::string::npos;
}

/// Instantiate a spec template: every `{...}` placeholder becomes
/// `value`. Non-template specs come back unchanged.
inline std::string instantiate_spec(const std::string& spec_template, long long value) {
  std::string out;
  std::size_t pos = 0;
  while (pos < spec_template.size()) {
    const auto open = spec_template.find('{', pos);
    const auto close = open == std::string::npos ? std::string::npos
                                                 : spec_template.find('}', open);
    if (open == std::string::npos || close == std::string::npos) {
      out += spec_template.substr(pos);
      break;
    }
    out += spec_template.substr(pos, open - pos);
    out += std::to_string(value);
    pos = close + 1;
  }
  return out;
}

/// Flags shared by the bench binaries. `--scenario` accepts either a
/// concrete spec or (sweep-style benches) a `{...}` template the bench
/// substitutes its swept variable into; `--threads` / `--map-cache` are
/// only offered by the benches that use them.
struct BenchCli {
  std::string scenario_spec;  ///< spec or template, per the bench's default
  int threads = 8;            ///< --threads=K (zone-mapping workers)
  int jobs = 8;               ///< --jobs=K (within-zone probe batch workers)
  std::string map_cache_dir;  ///< --map-cache=DIR ("" = cache disabled)
  /// --probe=<spec>: probe-engine spec forwarded to
  /// api::Session::set_probe_engine_spec ("" = the simulator). E.g.
  /// record:/tmp/run.envtrace, replay:/tmp/run.envtrace,
  /// fault:bw%7=fail:timeout, socket:agents.cfg (real TCP probe
  /// agents), record:/tmp/run.envtrace@socket:agents.cfg — grammar in
  /// docs/TESTING.md and docs/SOCKET_ENGINE.md.
  std::string probe_spec;
  /// --json=<path>: also write the bench's measurements as a JSON
  /// report ("" = text output only).
  std::string json_path;
};

/// The single bench flag parser. `parallel_flags` controls whether
/// --threads / --map-cache are accepted (and mentioned in usage);
/// everything unknown exits 2 with a usage line, --list prints the
/// scenario catalog and exits 0.
inline BenchCli bench_cli(int argc, char** argv, const std::string& default_spec,
                          bool parallel_flags = true) {
  const auto usage_and_exit = [&] {
    std::fprintf(stderr,
                 "usage: %s [--scenario=<spec%s>]%s [--json=<path>] [--list]   "
                 "(default scenario: %s)\n",
                 argv[0], parallel_flags ? "-or-template" : "",
                 parallel_flags
                     ? " [--threads=K] [--jobs=K] [--map-cache=DIR] [--probe=<engine-spec>]"
                     : "",
                 default_spec.c_str());
    std::exit(2);
  };
  BenchCli cli;
  cli.scenario_spec = default_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      std::printf("available scenarios (spec: name[:D1xD2...][@R1/R2...], rates in Mbps):\n%s",
                  api::ScenarioRegistry::builtin().render_catalog().c_str());
      std::exit(0);
    } else if (arg.rfind("--scenario=", 0) == 0) {
      cli.scenario_spec = arg.substr(std::strlen("--scenario="));
    } else if (arg == "--scenario" && i + 1 < argc) {
      cli.scenario_spec = argv[++i];
    } else if (parallel_flags && arg.rfind("--threads=", 0) == 0) {
      cli.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
      if (cli.threads < 1) usage_and_exit();
    } else if (parallel_flags && arg.rfind("--jobs=", 0) == 0) {
      cli.jobs = std::atoi(arg.c_str() + std::strlen("--jobs="));
      if (cli.jobs < 1) usage_and_exit();
    } else if (parallel_flags && arg.rfind("--map-cache=", 0) == 0) {
      cli.map_cache_dir = arg.substr(std::strlen("--map-cache="));
    } else if (parallel_flags && arg.rfind("--probe=", 0) == 0) {
      cli.probe_spec = arg.substr(std::strlen("--probe="));
    } else if (arg.rfind("--json=", 0) == 0) {
      cli.json_path = arg.substr(std::strlen("--json="));
      if (cli.json_path.empty()) usage_and_exit();
    } else {
      usage_and_exit();
    }
  }
  return cli;
}

/// Resolve a concrete (non-template) spec or exit with a message.
inline simnet::Scenario make_scenario_or_exit(const std::string& spec) {
  auto made = api::ScenarioRegistry::builtin().make(spec);
  if (!made.ok()) {
    std::fprintf(stderr, "bad scenario '%s': %s\n", spec.c_str(),
                 made.error().to_string().c_str());
    std::exit(2);
  }
  return std::move(made.value());
}

/// Common bench CLI: `--scenario=<spec>` overrides the bench's default
/// platform, `--list` prints the scenario catalog and exits. Exits with a
/// usage message on unknown flags or unresolvable specs, so every bench
/// main can stay a straight-line experiment.
inline simnet::Scenario scenario_from_cli(int argc, char** argv,
                                          const std::string& default_spec) {
  return make_scenario_or_exit(
      bench_cli(argc, argv, default_spec, /*parallel_flags=*/false).scenario_spec);
}

}  // namespace envnws::bench
