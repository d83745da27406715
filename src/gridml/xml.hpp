// Minimal XML document model, writer and parser.
//
// GridML (the output format of ENV, paper §4) only uses elements and
// attributes — no mixed content, namespaces or CDATA — so this parser
// supports exactly that subset plus declarations, comments and the five
// predefined entities. It exists so the repository has no external
// dependencies; it is not a general-purpose XML library.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace envnws::gridml {

class XmlElement {
 public:
  XmlElement() = default;
  explicit XmlElement(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // Attributes keep insertion order (GridML output is diffed in tests).
  void set_attribute(const std::string& key, const std::string& value);
  [[nodiscard]] std::string attribute(const std::string& key,
                                      const std::string& fallback = "") const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }

  XmlElement& add_child(XmlElement child);
  [[nodiscard]] const std::vector<XmlElement>& children() const { return children_; }
  [[nodiscard]] std::vector<XmlElement>& children() { return children_; }
  /// First child with the given element name, or nullptr.
  [[nodiscard]] const XmlElement* first_child(const std::string& name) const;
  [[nodiscard]] std::vector<const XmlElement*> children_named(const std::string& name) const;

  /// Serialize with 2-space indentation and escaped attribute values.
  [[nodiscard]] std::string to_string(int indent = 0) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<XmlElement> children_;
};

/// Parse a document; returns its root element. Accepts an optional
/// `<?xml ...?>` declaration and comments anywhere.
Result<XmlElement> parse_xml(const std::string& text);

/// Serialize with the standard declaration line prepended.
[[nodiscard]] std::string to_document_string(const XmlElement& root);

/// Escape &<>"' for use inside attribute values.
[[nodiscard]] std::string xml_escape(const std::string& text);

}  // namespace envnws::gridml
