// Synthesizing a simulatable platform from a published GridML document.
//
// The SimGrid lineage of grid tooling treats platform descriptions as
// durable artifacts that *drive* simulation; here the artifact is the
// effective network view ENV itself publishes (§4.3). Each ENV network
// becomes the matching simulated medium — shared segments become hubs at
// their measured ENV_base_local_BW, switched segments become switches,
// structural nodes become routers — so a platform mapped once (or edited
// by hand) can be re-simulated, re-mapped and re-planned without the
// original network. This is what backs the scenario registry's
// `file:<path.gridml>` family.
#pragma once

#include <string>

#include "common/result.hpp"
#include "gridml/model.hpp"
#include "simnet/scenario.hpp"

namespace envnws::api {

/// Build a scenario from the document's published view
/// (`env::published_view`: its last NETWORK tree, the merged effective
/// view `Session::load_map_from_gridml` also reads). The first machine
/// of the view (in pre-order) becomes the master; machines listed in
/// SITEs but absent from the network tree are ignored; segments without
/// recorded bandwidth default to 100 Mbps. Fails with `invalid_argument` when the
/// document carries no network tree or no machines.
[[nodiscard]] Result<simnet::Scenario> scenario_from_effective_view(const gridml::GridDoc& doc);

/// Read + parse + synthesize. `not_found` when the file cannot be read;
/// `protocol` / `invalid_argument` when it is not a usable GridML
/// document.
[[nodiscard]] Result<simnet::Scenario> scenario_from_gridml_file(const std::string& path);

}  // namespace envnws::api
