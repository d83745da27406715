#include "env/fault_probe_engine.hpp"

#include <sstream>

#include "common/parse.hpp"
#include "common/strings.hpp"

namespace envnws::env {

namespace {

const char* kind_name(std::optional<TraceRecord::Kind> kind) {
  if (!kind.has_value()) return "any";
  switch (*kind) {
    case TraceRecord::Kind::lookup: return "lookup";
    case TraceRecord::Kind::traceroute: return "trace";
    case TraceRecord::Kind::bandwidth: return "bw";
    case TraceRecord::Kind::concurrent: return "cbw";
  }
  return "unknown";
}

Result<std::optional<TraceRecord::Kind>> kind_from_string(const std::string& text) {
  std::optional<TraceRecord::Kind> any;
  if (text == kind_name(any)) return any;
  for (const auto kind : {TraceRecord::Kind::lookup, TraceRecord::Kind::traceroute,
                          TraceRecord::Kind::bandwidth, TraceRecord::Kind::concurrent}) {
    if (text == kind_name(kind)) return std::optional(kind);
  }
  return make_error(ErrorCode::invalid_argument,
                    "unknown fault kind '" + text + "' (expected lookup/trace/bw/cbw/any)");
}

Result<std::uint64_t> parse_count(const std::string& text, const std::string& rule) {
  // parse::to_u64 rejects non-numeric, negative (stoull would silently
  // wrap "-1" to 2^64-1) and out-of-range counts alike — all of them
  // must surface as a parse error, never select a nonsense experiment
  // or throw out of FaultSpec::parse.
  if (const auto value = parse::to_u64(text); value.has_value()) return *value;
  return make_error(ErrorCode::invalid_argument,
                    "bad selector count in fault rule '" + rule + "'");
}

}  // namespace

std::string FaultRule::to_string() const {
  std::ostringstream out;
  out << kind_name(kind);
  switch (select) {
    case Select::index: out << '#' << n; break;
    case Select::every: out << '%' << n; break;
    case Select::all: out << '*'; break;
  }
  out << '=';
  if (action == Action::fail) {
    out << "fail:" << envnws::to_string(fail_code);
  } else {
    out << "scale:" << factor;
  }
  return out.str();
}

bool FaultRule::selects(std::uint64_t count) const {
  switch (select) {
    case Select::index: return count == n;
    case Select::every: return n > 0 && (count + 1) % n == 0;
    case Select::all: return true;
  }
  return false;
}

Result<FaultSpec> FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  const std::string trimmed = strings::trim(text);
  if (trimmed.empty()) return spec;
  for (const auto& piece : strings::split(trimmed, ',')) {
    const std::string rule_text = strings::trim(piece);
    const auto eq = rule_text.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= rule_text.size()) {
      return make_error(ErrorCode::invalid_argument,
                        "fault rule '" + rule_text + "' is not <kind><selector>=<action>");
    }
    const std::string head = rule_text.substr(0, eq);
    const std::string action_text = rule_text.substr(eq + 1);

    FaultRule rule;
    const auto selector_at = head.find_first_of("#%*");
    if (selector_at == std::string::npos) {
      return make_error(ErrorCode::invalid_argument,
                        "fault rule '" + rule_text + "' has no selector (#N, %N or *)");
    }
    auto kind = kind_from_string(head.substr(0, selector_at));
    if (!kind.ok()) return kind.error();
    rule.kind = kind.value();
    if (head[selector_at] == '*') {
      if (selector_at + 1 != head.size()) {
        return make_error(ErrorCode::invalid_argument,
                          "trailing characters after '*' in fault rule '" + rule_text + "'");
      }
      rule.select = FaultRule::Select::all;
    } else {
      rule.select = head[selector_at] == '#' ? FaultRule::Select::index : FaultRule::Select::every;
      auto count = parse_count(head.substr(selector_at + 1), rule_text);
      if (!count.ok()) return count.error();
      rule.n = count.value();
      if (rule.select == FaultRule::Select::every && rule.n == 0) {
        return make_error(ErrorCode::invalid_argument,
                          "fault rule '" + rule_text + "': period must be >= 1");
      }
    }

    if (action_text == "fail" || action_text.rfind("fail:", 0) == 0) {
      rule.action = FaultRule::Action::fail;
      if (action_text.size() > 5) {
        const auto code = error_code_from_string(action_text.substr(5));
        if (!code.has_value()) {
          return make_error(ErrorCode::invalid_argument,
                            "unknown error code in fault rule '" + rule_text + "'");
        }
        rule.fail_code = *code;
      }
    } else if (action_text.rfind("scale:", 0) == 0) {
      rule.action = FaultRule::Action::scale;
      if (rule.kind != TraceRecord::Kind::bandwidth && rule.kind != TraceRecord::Kind::concurrent) {
        return make_error(ErrorCode::invalid_argument,
                          "fault rule '" + rule_text + "': scale applies to bw/cbw only");
      }
      const auto factor = parse::to_double(action_text.substr(6));
      if (!factor.has_value() || *factor < 0.0) {
        return make_error(ErrorCode::invalid_argument,
                          "bad scale factor in fault rule '" + rule_text + "'");
      }
      rule.factor = *factor;
    } else {
      return make_error(ErrorCode::invalid_argument,
                        "unknown action '" + action_text + "' in fault rule '" + rule_text +
                            "' (expected fail[:<code>] or scale:<factor>)");
    }
    spec.rules.push_back(rule);
  }
  return spec;
}

FaultInjectingProbeEngine::FaultInjectingProbeEngine(std::unique_ptr<ProbeEngine> inner,
                                                     FaultSpec spec)
    : inner_(std::move(inner)), spec_(std::move(spec)) {}

const FaultRule* FaultInjectingProbeEngine::match(TraceRecord::Kind kind) {
  const std::uint64_t global = count_global_++;
  const std::uint64_t per_kind = count_kind_[static_cast<int>(kind)]++;
  for (const auto& rule : spec_.rules) {
    const bool selected =
        rule.kind.has_value() ? rule.kind == kind && rule.selects(per_kind) : rule.selects(global);
    if (selected) return &rule;
  }
  return nullptr;
}

TraceRecord FaultInjectingProbeEngine::handle(TraceRecord call) {
  const FaultRule* rule = match(call.kind);
  if (rule != nullptr && rule->action == FaultRule::Action::fail) {
    ++injected_;
    fail(call, make_error(rule->fail_code,
                          "injected fault (" + rule->to_string() + "): " + call.describe()));
    return call;
  }
  forward(*inner_, call);
  if (rule != nullptr) {  // scale: FaultSpec::parse allows it on bw/cbw only
    bool scaled = false;
    for (auto& entry : call.entries) {
      if (!entry.ok) continue;
      entry.bandwidth_bps *= rule->factor;
      scaled = true;
    }
    if (scaled) ++injected_;
  }
  return call;
}

ProbeStats FaultInjectingProbeEngine::stats() const { return inner_->stats(); }

}  // namespace envnws::env
