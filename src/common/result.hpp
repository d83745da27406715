// Minimal Result<T> error-handling vocabulary.
//
// Probing a network that contains firewalls, dead hosts, and routers that
// drop traceroute is an exercise in expected failure; exceptions are kept
// for programmer errors only. Result<T> carries either a value or an Error
// with a category and a human-readable message. Reading the state one
// does not hold prints what was ignored and aborts, in every build.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace envnws {

/// Why an operation failed. Categories matter to callers (ENV reacts to
/// `blocked_by_firewall` by scheduling a per-zone mapping, but treats
/// `invalid_argument` as a bug); messages are for humans.
enum class ErrorCode {
  invalid_argument,
  not_found,
  unreachable,          ///< no route between the endpoints
  blocked_by_firewall,  ///< endpoints live in disjoint firewall zones
  host_down,            ///< endpoint host is failed/off
  timeout,
  protocol,  ///< malformed message / parse error
  internal,
};

[[nodiscard]] constexpr const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::invalid_argument: return "invalid_argument";
    case ErrorCode::not_found: return "not_found";
    case ErrorCode::unreachable: return "unreachable";
    case ErrorCode::blocked_by_firewall: return "blocked_by_firewall";
    case ErrorCode::host_down: return "host_down";
    case ErrorCode::timeout: return "timeout";
    case ErrorCode::protocol: return "protocol";
    case ErrorCode::internal: return "internal";
  }
  return "unknown";
}

/// Inverse of `to_string(ErrorCode)` — the parsing side of serialized
/// errors (probe traces, fault-injection specs). `nullopt` for anything
/// that is not exactly a known category name.
[[nodiscard]] inline std::optional<ErrorCode> error_code_from_string(const std::string& text) {
  for (const ErrorCode code :
       {ErrorCode::invalid_argument, ErrorCode::not_found, ErrorCode::unreachable,
        ErrorCode::blocked_by_firewall, ErrorCode::host_down, ErrorCode::timeout,
        ErrorCode::protocol, ErrorCode::internal}) {
    if (text == to_string(code)) return code;
  }
  return std::nullopt;
}

struct Error {
  ErrorCode code = ErrorCode::internal;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return std::string(envnws::to_string(code)) + ": " + message;
  }
};

/// Print `misuse` (and the error nobody checked, if any) and abort.
[[noreturn, gnu::cold]] inline void abort_misused_result(const char* misuse, const Error* ignored) {
  const std::string text = ignored == nullptr ? "" : ": " + ignored->to_string();
  std::fprintf(stderr, "envnws: %s%s\n", misuse, text.c_str());
  std::abort();
}

/// Either a T or an Error. Intentionally tiny; not a std::expected clone.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const {
    if (!ok()) [[unlikely]] abort_misused_result("value() of an error Result", &*error_);
    return *value_;
  }
  [[nodiscard]] T& value() {
    if (!ok()) [[unlikely]] abort_misused_result("value() of an error Result", &*error_);
    return *value_;
  }
  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }
  [[nodiscard]] const Error& error() const {
    if (ok()) [[unlikely]] abort_misused_result("error() of a Result holding a value", nullptr);
    return *error_;
  }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Result<void> analogue.
class Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const Error& error() const {
    if (ok()) [[unlikely]] abort_misused_result("error() of an ok Status", nullptr);
    return *error_;
  }

 private:
  std::optional<Error> error_;
};

inline Error make_error(ErrorCode code, std::string message) {
  return Error{code, std::move(message)};
}

}  // namespace envnws
