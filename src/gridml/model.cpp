#include "gridml/model.hpp"

#include <algorithm>

namespace envnws::gridml {

bool Machine::answers_to(const std::string& any_name) const {
  if (name == any_name) return true;
  return std::find(aliases.begin(), aliases.end(), any_name) != aliases.end();
}

const Machine* GridDoc::find_machine(const std::string& any_name) const {
  for (const auto& site : sites) {
    for (const auto& machine : site.machines) {
      if (machine.answers_to(any_name)) return &machine;
    }
  }
  return nullptr;
}

NameIndex::NameIndex(const GridDoc& doc) {
  for (const auto& site : doc.sites) {
    for (const auto& machine : site.machines) {
      by_name_.try_emplace(machine.name, &machine);
      for (const auto& alias : machine.aliases) by_name_.try_emplace(alias, &machine);
    }
  }
}

const Machine* NameIndex::find(const std::string& any_name) const {
  const auto it = by_name_.find(any_name);
  return it == by_name_.end() ? nullptr : it->second;
}

NameIndex GridDoc::name_index() const { return NameIndex(*this); }

XmlElement property_to_xml(const Property& prop) {
  XmlElement element("PROPERTY");
  element.set_attribute("name", prop.name);
  element.set_attribute("value", prop.value);
  if (!prop.units.empty()) element.set_attribute("units", prop.units);
  return element;
}

namespace {

XmlElement machine_to_xml(const Machine& machine) {
  XmlElement element("MACHINE");
  XmlElement label("LABEL");
  if (!machine.ip.empty()) label.set_attribute("ip", machine.ip);
  label.set_attribute("name", machine.name);
  for (const auto& alias : machine.aliases) {
    XmlElement alias_el("ALIAS");
    alias_el.set_attribute("name", alias);
    label.add_child(std::move(alias_el));
  }
  element.add_child(std::move(label));
  for (const auto& prop : machine.properties) element.add_child(property_to_xml(prop));
  return element;
}

Property property_from_xml(const XmlElement& element) {
  return Property{element.attribute("name"), element.attribute("value"),
                  element.attribute("units")};
}

Result<Machine> machine_from_xml(const XmlElement& element) {
  Machine machine;
  const XmlElement* label = element.first_child("LABEL");
  if (label == nullptr) {
    // Reference-style MACHINE, as NETWORK lists them: only a name attribute.
    machine.name = element.attribute("name");
    if (machine.name.empty()) {
      return make_error(ErrorCode::protocol, "MACHINE without LABEL or name");
    }
    return machine;
  }
  machine.name = label->attribute("name");
  machine.ip = label->attribute("ip");
  for (const XmlElement* alias : label->children_named("ALIAS")) {
    machine.aliases.push_back(alias->attribute("name"));
  }
  for (const XmlElement* prop : element.children_named("PROPERTY")) {
    machine.properties.push_back(property_from_xml(*prop));
  }
  return machine;
}

}  // namespace

XmlElement GridDoc::to_xml() const {
  XmlElement root("GRID");
  if (!label.empty()) {
    XmlElement label_el("LABEL");
    label_el.set_attribute("name", label);
    root.add_child(std::move(label_el));
  }
  for (const auto& site : sites) {
    XmlElement site_el("SITE");
    site_el.set_attribute("domain", site.domain);
    if (!site.label.empty()) {
      XmlElement label_el("LABEL");
      label_el.set_attribute("name", site.label);
      site_el.add_child(std::move(label_el));
    }
    for (const auto& machine : site.machines) site_el.add_child(machine_to_xml(machine));
    root.add_child(std::move(site_el));
  }
  for (const auto& network : networks) root.add_child(network);
  return root;
}

std::string GridDoc::to_string() const { return to_document_string(to_xml()); }

Result<GridDoc> GridDoc::from_xml(const XmlElement& root) {
  if (root.name() != "GRID") {
    return make_error(ErrorCode::protocol, "root element is not GRID");
  }
  GridDoc doc;
  if (const XmlElement* label = root.first_child("LABEL")) {
    doc.label = label->attribute("name");
  }
  for (const XmlElement* site_el : root.children_named("SITE")) {
    Site site;
    site.domain = site_el->attribute("domain");
    if (const XmlElement* label = site_el->first_child("LABEL")) {
      site.label = label->attribute("name");
    }
    for (const XmlElement* machine_el : site_el->children_named("MACHINE")) {
      auto machine = machine_from_xml(*machine_el);
      if (!machine.ok()) return machine.error();
      site.machines.push_back(std::move(machine.value()));
    }
    doc.sites.push_back(std::move(site));
  }
  for (const XmlElement* network_el : root.children_named("NETWORK")) {
    doc.networks.push_back(*network_el);
  }
  return doc;
}

Result<GridDoc> GridDoc::parse(const std::string& text) {
  auto root = parse_xml(text);
  if (!root.ok()) return root.error();
  return from_xml(root.value());
}

}  // namespace envnws::gridml
