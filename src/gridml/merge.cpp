#include "gridml/merge.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace envnws::gridml {

namespace {

void add_alias_unique(Machine& machine, const std::string& alias) {
  if (machine.name == alias) return;
  if (std::find(machine.aliases.begin(), machine.aliases.end(), alias) ==
      machine.aliases.end()) {
    machine.aliases.push_back(alias);
  }
}

}  // namespace

Result<GridDoc> merge(std::vector<GridDoc> docs, const std::vector<AliasGroup>& gateway_aliases,
                      const std::string& merged_label) {
  GridDoc merged;
  merged.label = merged_label;
  for (auto& doc : docs) {
    for (auto& site : doc.sites) merged.sites.push_back(std::move(site));
    for (auto& network : doc.networks) merged.networks.push_back(std::move(network));
  }

  // A platform has few alias groups (one per multi-homed gateway), so each
  // resolves by a scan of the merged machines.
  for (const auto& group : gateway_aliases) {
    if (group.size() < 2) {
      return make_error(ErrorCode::invalid_argument,
                        "alias group needs at least two names");
    }
    // Collect every identity known for this gateway across all sites...
    std::set<std::string> identities(group.begin(), group.end());
    for (const auto& name : group) {
      if (const Machine* machine = merged.find_machine(name)) {
        identities.insert(machine->name);
        identities.insert(machine->aliases.begin(), machine->aliases.end());
      }
    }
    // ...and graft the union onto each per-zone record of the machine.
    bool found_any = false;
    for (auto& site : merged.sites) {
      for (auto& machine : site.machines) {
        const bool in_group = std::any_of(
            group.begin(), group.end(),
            [&machine](const std::string& name) { return machine.answers_to(name); });
        if (!in_group) continue;
        found_any = true;
        for (const auto& identity : identities) add_alias_unique(machine, identity);
      }
    }
    if (!found_any) {
      return make_error(ErrorCode::not_found,
                        "no machine matches alias group starting with '" + group.front() + "'");
    }
  }
  return merged;
}

}  // namespace envnws::gridml
