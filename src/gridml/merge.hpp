// Merging per-firewall-zone GridML documents (paper §4.3, "Firewalls").
//
// When machines cannot all talk to each other, ENV runs once per zone and
// the results are merged: a new GRID containing both SITEs is created and
// the gateway machines — which appear in both runs under different names —
// get each other's names as ALIASes. "This operation is often as simple
// as a file concatenation. The only information the user has to provide
// is the several aliases of the gateway machines."
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "gridml/model.hpp"

namespace envnws::gridml {

/// One gateway's identities across zones, e.g.
/// {"popc.ens-lyon.fr", "popc0.popc.private"}.
using AliasGroup = std::vector<std::string>;

/// Merge `docs` into one document. Every alias group links machines that
/// are physically the same box; their alias lists are unioned so lookups
/// under either name resolve to the merged machine. Site lists and
/// NETWORK elements are moved over as they are (env::Mapper reconciles
/// the zones' ENV views and publishes one merged NETWORK).
Result<GridDoc> merge(std::vector<GridDoc> docs,
                      const std::vector<AliasGroup>& gateway_aliases,
                      const std::string& merged_label = "Grid1");

}  // namespace envnws::gridml
