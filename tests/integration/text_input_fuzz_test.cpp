// Seeded mutation fuzzers for the text inputs the program reads back:
// ENVTRACE probe traces, the monitord/NWS series dump and published
// GridML views. Each starts from a real document (a committed golden
// trace, a store's own dump, a mapped platform's published view),
// applies a few random edits per mutant, and feeds the result through
// the production path. Every outcome must be `ok` or a `Result` error:
// a throw fails the test, and an abort or a sanitizer report kills it.
// The seeds are fixed, so a failing mutant reproduces bit for bit.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "common/rng.hpp"
#include "env/trace_probe_engine.hpp"
#include "monitor/store.hpp"

namespace envnws {
namespace {

namespace fs = std::filesystem;

const fs::path kTraceDir = fs::path(ENVNWS_TEST_DATA_DIR) / "traces";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// `text` after 1-3 random edits: overwrite a byte, delete or duplicate
/// a span, insert one of the format's own `tokens` (the likeliest edit,
/// so that many mutants still parse), or truncate.
std::string mutate(const std::string& text, const std::vector<std::string>& tokens, Rng& rng) {
  std::string out = text;
  const std::size_t edits = 1 + rng.next_below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = out.empty() ? 0 : rng.next_below(out.size());
    const std::size_t span = 1 + rng.next_below(16);
    switch (rng.next_below(8)) {
      case 0:
        if (!out.empty()) out[at] = static_cast<char>(rng.next_below(256));
        break;
      case 1:
        out.erase(at, span);
        break;
      case 2:
        out.insert(at, out.substr(at, span));
        break;
      case 7:
        out.resize(at);
        break;
      default:
        out.insert(at, tokens[rng.next_below(tokens.size())]);
        break;
    }
  }
  return out;
}

/// Outcome tally: both kinds must occur, or the fuzzer only ever saw
/// one path.
struct Tally {
  int ok = 0;
  int errors = 0;
};

TEST(TraceFuzz, MutatedGoldenTracesParseAndReplayWithoutThrowing) {
  const std::vector<std::string> tokens{
      "ENVTRACE 1\n", "L ", "T ", "B ", "C ", "S ", " ok", " err", "|", "%", "%zz", " nan",
      " inf", " -1", " 1e308", " 18446744073709551616", "\n", " ", "l0.lan", "timeout"};
  struct Family {
    const char* spec;
    const char* file;
  };
  const Family families[] = {{"dumbbell:3x3@100/10", "dumbbell-3x3.envtrace"},
                             {"multi-firewall:2x2", "multi-firewall-2x2.envtrace"}};
  const fs::path mutant_path = fs::path(::testing::TempDir()) / "fuzz-mutant.envtrace";
  Rng rng(0x7ace5eedULL);
  Tally parsed;
  Tally replayed;
  for (const Family& family : families) {
    const std::string golden = read_file(kTraceDir / family.file);
    ASSERT_FALSE(golden.empty()) << family.file;
    auto scenario = api::ScenarioRegistry::builtin().make(family.spec);
    ASSERT_TRUE(scenario.ok());
    for (int i = 0; i < 120; ++i) {
      const std::string text = mutate(golden, tokens, rng);
      SCOPED_TRACE(std::string(family.file) + " mutant " + std::to_string(i));
      EXPECT_NO_THROW({
        const auto trace = env::ProbeTrace::parse(text);
        ++(trace.ok() ? parsed.ok : parsed.errors);
        if (trace.ok()) {
          // Strict replay of the mutant: it maps or fails with an error.
          std::ofstream(mutant_path, std::ios::trunc | std::ios::binary) << text;
          simnet::Network net(simnet::Scenario(scenario.value()).topology);
          api::Session session(net, scenario.value());
          const Status spec = session.set_probe_engine_spec("replay:" + mutant_path.string());
          const Status mapped = spec.ok() ? session.map() : spec;
          ++(mapped.ok() ? replayed.ok : replayed.errors);
        }
      });
    }
  }
  EXPECT_GT(parsed.ok, 0);
  EXPECT_GT(parsed.errors, 0);
  EXPECT_GT(replayed.ok, 0);
  EXPECT_GT(replayed.errors, 0);
}

TEST(DumpFuzz, MutatedStoreDumpsRestoreWithoutThrowing) {
  monitor::SeriesStore store(64, monitor::DriftPolicy{});
  for (int t = 1; t <= 12; ++t) {
    store.record({nws::ResourceKind::bandwidth, "h0", "h1"}, t, 1.0e8 + t * 1.5e5);
    store.record({nws::ResourceKind::bandwidth, "h1", "h0"}, t, 9.0e7 - t * 3.0e4);
    store.record({nws::ResourceKind::latency, "h0", "h2"}, t, 1.0e-3 * t);
  }
  const std::string dump = store.dump();
  ASSERT_FALSE(dump.empty());
  const std::vector<std::string> tokens{
      "series ", "bandwidth ", "latency ", "availableCpu ", "bogus ", "- ", "h0 ", "\n",
      " ", "nan", "inf", "-inf", "1e999", "-0", "0x1p3", "# note\n", "series bandwidth h0\n"};
  Rng rng(0xd0e5eedULL);
  Tally restored;
  for (int i = 0; i < 800; ++i) {
    const std::string text = mutate(dump, tokens, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));
    monitor::SeriesStore target(64, monitor::DriftPolicy{});
    EXPECT_NO_THROW({
      const Status status = target.restore(text);
      ++(status.ok() ? restored.ok : restored.errors);
      (void)target.collect();
    });
  }
  EXPECT_GT(restored.ok, 0);
  EXPECT_GT(restored.errors, 0);
}

TEST(GridmlFuzz, MutatedPublishedViewsLoadAndDeployWithoutThrowing) {
  const std::vector<std::string> tokens{
      "<", ">", "/>", "</NETWORK>", "<NETWORK type=\"ENV_Switched\">", "<MACHINE>",
      "</MACHINE>", "<LABEL name=\"", "\"", "=", "&amp;", "&bogus;", "<PROPERTY name=\"",
      "ENV_base_BW", "ENV_gateway", "value=\"-1\"", "value=\"nan\"", "value=\"1e999\"", " "};
  Rng rng(0x9e1d5eedULL);
  Tally loaded;
  Tally deployed;
  for (const char* spec : {"dumbbell:3x3", "multi-firewall:2x3"}) {
    auto scenario = api::ScenarioRegistry::builtin().make(spec);
    ASSERT_TRUE(scenario.ok());
    std::string published;
    std::string master;
    {
      simnet::Network net(simnet::Scenario(scenario.value()).topology);
      api::Session session(net, scenario.value());
      ASSERT_TRUE(session.map().ok()) << spec;
      published = session.map_result().grid.to_string();
      master = session.map_result().master_fqdn;
    }
    for (int i = 0; i < 150; ++i) {
      const std::string text = mutate(published, tokens, rng);
      SCOPED_TRACE(std::string(spec) + " mutant " + std::to_string(i));
      simnet::Network net(simnet::Scenario(scenario.value()).topology);
      api::Session session(net);
      EXPECT_NO_THROW({
        const Status load = session.load_map_from_gridml(text, master);
        ++(load.ok() ? loaded.ok : loaded.errors);
        if (load.ok()) {
          const Status run = session.run_all();
          ++(run.ok() ? deployed.ok : deployed.errors);
        }
        session.invalidate(api::Stage::map);  // stops an applied NWS
      });
    }
  }
  EXPECT_GT(loaded.ok, 0);
  EXPECT_GT(loaded.errors, 0);
  EXPECT_GT(deployed.ok, 0);
}

}  // namespace
}  // namespace envnws
