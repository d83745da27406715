// The published GridML document, pinned byte for byte. Every other
// GridML check compares one run with another, so a format change that
// moved both runs the same way would pass them; these digests would not.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "common/hash.hpp"
#include "env/env_tree.hpp"
#include "gridml/model.hpp"

namespace envnws::api {
namespace {

struct PinnedCase {
  std::string spec;
  bool bidirectional;
  std::string digest;  ///< hex64(fnv1a64(map_result().grid.to_string()))
};

TEST(PublishedGridml, DigestsArePinnedAndTheViewRoundTrips) {
  const std::vector<PinnedCase> cases = {
      {"ens-lyon", false, "f424fe99e15033ce"},
      {"multi-firewall:3x3", false, "0333cef1d022792d"},
      {"dumbbell:3x3@100/10", false, "6fccc3a4c0e45e37"},
      {"tcp-lv08:ens-lyon", false, "7f618f2f67d58d08"},
      {"ens-lyon", true, "fa1cc3bc2e22c5d3"},  // publishes ENV_base_reverse_BW
  };
  for (const auto& pinned : cases) {
    SCOPED_TRACE(pinned.spec + (pinned.bidirectional ? " (bidirectional)" : ""));
    auto scenario = ScenarioRegistry::builtin().make(pinned.spec);
    ASSERT_TRUE(scenario.ok());
    simnet::Network net(simnet::Scenario(scenario.value()).topology);
    Session session(net, std::move(scenario.value()));
    session.options().mapper.bidirectional_probes = pinned.bidirectional;
    ASSERT_TRUE(session.map().ok());
    const std::string text = session.map_result().grid.to_string();
    EXPECT_EQ(hash::hex64(hash::fnv1a64(text)), pinned.digest);
    if (pinned.bidirectional) {
      EXPECT_NE(text.find("ENV_base_reverse_BW"), std::string::npos);
    }

    // Reading the published view and writing it again gives back the
    // document's NETWORK element, byte for byte.
    const auto doc = gridml::GridDoc::parse(text);
    ASSERT_TRUE(doc.ok());
    const auto view = env::published_view(doc.value());
    ASSERT_TRUE(view.ok());
    const std::string rewritten = view.value().to_xml().to_string(1);
    ASSERT_EQ(doc.value().networks.size(), 1u);
    EXPECT_EQ(rewritten, doc.value().networks.back().to_string(1));
    EXPECT_NE(text.find(rewritten), std::string::npos);
  }
}

}  // namespace
}  // namespace envnws::api
