#include "gridml/xml.hpp"

#include <cctype>
#include <sstream>

namespace envnws::gridml {

void XmlElement::set_attribute(const std::string& key, const std::string& value) {
  for (auto& [existing_key, existing_value] : attributes_) {
    if (existing_key == key) {
      existing_value = value;
      return;
    }
  }
  attributes_.emplace_back(key, value);
}

std::string XmlElement::attribute(const std::string& key, const std::string& fallback) const {
  for (const auto& [existing_key, value] : attributes_) {
    if (existing_key == key) return value;
  }
  return fallback;
}

XmlElement& XmlElement::add_child(XmlElement child) {
  children_.push_back(std::move(child));
  return children_.back();
}

const XmlElement* XmlElement::first_child(const std::string& name) const {
  for (const auto& child : children_) {
    if (child.name() == name) return &child;
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::children_named(const std::string& name) const {
  std::vector<const XmlElement*> out;
  for (const auto& child : children_) {
    if (child.name() == name) out.push_back(&child);
  }
  return out;
}

std::string xml_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string XmlElement::to_string(int indent) const {
  std::ostringstream out;
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out << pad << '<' << name_;
  for (const auto& [key, value] : attributes_) {
    out << ' ' << key << "=\"" << xml_escape(value) << '"';
  }
  if (children_.empty()) {
    out << " />\n";
    return out.str();
  }
  out << ">\n";
  for (const auto& child : children_) out << child.to_string(indent + 1);
  out << pad << "</" << name_ << ">\n";
  return out.str();
}

std::string to_document_string(const XmlElement& root) {
  return "<?xml version=\"1.0\"?>\n" + root.to_string();
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<XmlElement> parse() {
    skip_prolog();
    auto root = parse_element();
    if (!root.ok()) return root;
    skip_whitespace_and_comments();
    if (pos_ != text_.size()) {
      return fail("trailing content after root element");
    }
    return root;
  }

 private:
  Error fail(const std::string& message) const {
    return make_error(ErrorCode::protocol,
                      message + " (offset " + std::to_string(pos_) + ")");
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  [[nodiscard]] bool starts(const std::string& token) const {
    return text_.compare(pos_, token.size(), token) == 0;
  }

  void skip_whitespace() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek())) != 0) ++pos_;
  }

  void skip_whitespace_and_comments() {
    while (true) {
      skip_whitespace();
      if (starts("<!--")) {
        const std::size_t end = text_.find("-->", pos_ + 4);
        pos_ = end == std::string::npos ? text_.size() : end + 3;
        continue;
      }
      return;
    }
  }

  void skip_prolog() {
    skip_whitespace();
    if (starts("<?xml")) {
      const std::size_t end = text_.find("?>", pos_);
      pos_ = end == std::string::npos ? text_.size() : end + 2;
    }
    skip_whitespace_and_comments();
    // Tolerate a DOCTYPE line (the GridML DTD reference).
    if (starts("<!DOCTYPE")) {
      const std::size_t end = text_.find('>', pos_);
      pos_ = end == std::string::npos ? text_.size() : end + 1;
    }
    skip_whitespace_and_comments();
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '-' ||
           c == '.' || c == ':';
  }

  Result<std::string> parse_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) ++pos_;
    if (pos_ == start) return Result<std::string>(fail("expected a name"));
    return text_.substr(start, pos_ - start);
  }

  Result<std::string> parse_attribute_value() {
    if (eof() || (peek() != '"' && peek() != '\'')) {
      return Result<std::string>(fail("expected quoted attribute value"));
    }
    const char quote = peek();
    ++pos_;
    std::string value;
    while (!eof() && peek() != quote) {
      if (peek() == '&') {
        if (starts("&amp;")) {
          value += '&';
          pos_ += 5;
        } else if (starts("&lt;")) {
          value += '<';
          pos_ += 4;
        } else if (starts("&gt;")) {
          value += '>';
          pos_ += 4;
        } else if (starts("&quot;")) {
          value += '"';
          pos_ += 6;
        } else if (starts("&apos;")) {
          value += '\'';
          pos_ += 6;
        } else {
          return Result<std::string>(fail("unknown entity"));
        }
        continue;
      }
      value += peek();
      ++pos_;
    }
    if (eof()) return Result<std::string>(fail("unterminated attribute value"));
    ++pos_;  // closing quote
    return value;
  }

  Result<XmlElement> parse_element() {
    skip_whitespace_and_comments();
    if (eof() || peek() != '<') return Result<XmlElement>(fail("expected '<'"));
    ++pos_;
    auto name = parse_name();
    if (!name.ok()) return name.error();
    XmlElement element(name.value());

    while (true) {
      skip_whitespace();
      if (eof()) return Result<XmlElement>(fail("unterminated start tag"));
      if (starts("/>")) {
        pos_ += 2;
        return element;
      }
      if (peek() == '>') {
        ++pos_;
        break;
      }
      auto key = parse_name();
      if (!key.ok()) return key.error();
      skip_whitespace();
      if (eof() || peek() != '=') return Result<XmlElement>(fail("expected '='"));
      ++pos_;
      skip_whitespace();
      auto value = parse_attribute_value();
      if (!value.ok()) return value.error();
      element.set_attribute(key.value(), value.value());
    }

    // Children until the matching end tag. Text content is not part of
    // GridML; any non-markup characters are skipped.
    while (true) {
      while (!eof() && peek() != '<') ++pos_;
      if (eof()) return Result<XmlElement>(fail("missing end tag for " + element.name()));
      if (starts("<!--")) {
        const std::size_t end = text_.find("-->", pos_ + 4);
        pos_ = end == std::string::npos ? text_.size() : end + 3;
        continue;
      }
      if (starts("</")) {
        pos_ += 2;
        auto end_name = parse_name();
        if (!end_name.ok()) return end_name.error();
        if (end_name.value() != element.name()) {
          return Result<XmlElement>(
              fail("mismatched end tag: " + end_name.value() + " vs " + element.name()));
        }
        skip_whitespace();
        if (eof() || peek() != '>') return Result<XmlElement>(fail("expected '>'"));
        ++pos_;
        return element;
      }
      auto child = parse_element();
      if (!child.ok()) return child;
      element.add_child(std::move(child.value()));
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<XmlElement> parse_xml(const std::string& text) { return Parser(text).parse(); }

}  // namespace envnws::gridml
