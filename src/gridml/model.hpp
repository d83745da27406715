// Typed GridML document model.
//
// GridML is "a specialized form of XML [...] a flexible format for
// describing the physical and observable characteristics of resources and
// networks constituting a Grid" (paper §4). The element vocabulary is the
// one used by the paper's listings: GRID / SITE / MACHINE / LABEL / ALIAS /
// PROPERTY / NETWORK. This model types the site inventory (SITE, MACHINE)
// and offers the lookups the mapper and planner need. NETWORK elements
// pass through verbatim: the effective view they carry, and its ENV_*
// vocabulary, belong to env::EnvNetwork (env/env_tree.hpp).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "gridml/xml.hpp"

namespace envnws::gridml {

struct Property {
  std::string name;
  std::string value;
  std::string units;  ///< optional
};

struct Machine {
  std::string name;                 ///< canonical fqdn
  std::string ip;                   ///< dotted quad (may be empty)
  std::vector<std::string> aliases;
  std::vector<Property> properties;

  [[nodiscard]] bool answers_to(const std::string& any_name) const;
};

struct Site {
  std::string domain;  ///< e.g. "ens-lyon.fr"
  std::string label;   ///< e.g. "ENS-LYON-FR"
  std::vector<Machine> machines;
};

/// `<PROPERTY name=".." value=".." [units=".."] />`, the one PROPERTY writer.
[[nodiscard]] XmlElement property_to_xml(const Property& prop);

struct GridDoc;

/// Every machine name and alias of one document, hashed. A name
/// resolves to the first machine answering to it in document order (site
/// order, then machine order): exactly GridDoc::find_machine's answer, in
/// O(1) instead of a scan. Built in O(names). It points into the
/// document, so it is valid while the document's machines stay where
/// they are.
class NameIndex {
 public:
  /// find_machine(any_name) of the indexed document.
  [[nodiscard]] const Machine* find(const std::string& any_name) const;

 private:
  friend struct GridDoc;
  explicit NameIndex(const GridDoc& doc);

  std::unordered_map<std::string, const Machine*> by_name_;
};

struct GridDoc {
  std::string label;
  std::vector<Site> sites;
  /// NETWORK elements, kept as parsed or as appended.
  std::vector<XmlElement> networks;

  /// Machine lookup across all sites, by canonical name or alias: the
  /// first machine answering to it, found by a linear scan.
  [[nodiscard]] const Machine* find_machine(const std::string& any_name) const;
  /// find_machine for many names: index once, then look up in O(1).
  [[nodiscard]] NameIndex name_index() const;

  [[nodiscard]] XmlElement to_xml() const;
  [[nodiscard]] std::string to_string() const;
  static Result<GridDoc> from_xml(const XmlElement& root);
  static Result<GridDoc> parse(const std::string& text);
};

}  // namespace envnws::gridml
