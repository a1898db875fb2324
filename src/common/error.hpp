// Error model for the Clouds reproduction.
//
// Distributed-system calls fail in ordinary, expected ways (timeouts, dead
// nodes, aborted transactions), so those paths return Result<T> rather than
// throwing. Exceptions are reserved for programming errors (contract
// violations) and for forced process teardown (sim::ProcessKilled).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace clouds {

enum class Errc : std::uint8_t {
  ok = 0,
  timeout,            // RaTP transaction or lock wait timed out
  unreachable,        // destination node is down / not attached
  not_found,          // no such segment / object / name / entry point
  already_exists,     // name or sysname collision
  protection,         // access violated page protection or object boundary
  aborted,            // consistency scope or PET computation aborted
  deadlock,           // lock wait aborted by deadlock policy
  no_quorum,          // PET commit could not reach a write quorum
  bad_argument,       // malformed request or parameter type mismatch
  io,                 // simulated disk error
  killed,             // executing thread's node crashed
  busy,               // resource temporarily held (e.g. txn-pinned frame); retry
  internal,           // invariant failure inside a subsystem (bug)
};

const char* errcName(Errc e) noexcept;

struct Error {
  Errc code = Errc::internal;
  std::string message;

  std::string toString() const { return std::string(errcName(code)) + ": " + message; }
};

inline Error makeError(Errc code, std::string message) {
  return Error{code, std::move(message)};
}

// Minimal std::expected stand-in (std::expected is C++23; we target C++20).
template <typename T>
class [[nodiscard]] Result {
 public:
  // GCC 12 under -fsanitize=address,undefined reports the inactive members
  // of a freshly built std::variant temporary (an obj::Value) as "maybe
  // uninitialized" when it is moved in here. Restructuring each returning
  // site only moves the report to the next one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  Result(Error error) : state_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return std::holds_alternative<T>(state_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    requireOk();
    return std::get<T>(state_);
  }
  T& value() & {
    requireOk();
    return std::get<T>(state_);
  }
  T&& value() && {
    requireOk();
    return std::get<T>(std::move(state_));
  }

  const Error& error() const& {
    if (ok()) throw std::logic_error("Result::error() on ok Result");
    return std::get<Error>(state_);
  }

  Errc code() const noexcept { return ok() ? Errc::ok : std::get<Error>(state_).code; }

  T valueOr(T fallback) const& { return ok() ? std::get<T>(state_) : std::move(fallback); }

 private:
  void requireOk() const {
    if (!ok()) {
      throw std::logic_error("Result::value() on error: " + std::get<Error>(state_).toString());
    }
  }
  std::variant<T, Error> state_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  const Error& error() const& {
    if (ok()) throw std::logic_error("Result::error() on ok Result");
    return *error_;
  }
  Errc code() const noexcept { return ok() ? Errc::ok : error_->code; }

 private:
  std::optional<Error> error_;
};

inline Result<void> okResult() { return Result<void>(); }

// Propagate an error from an inner Result to the caller's Result type.
#define CLOUDS_TRY(expr)                          \
  do {                                            \
    auto&& clouds_try_r_ = (expr);                \
    if (!clouds_try_r_.ok()) return clouds_try_r_.error(); \
  } while (0)

#define CLOUDS_TRY_ASSIGN(lhs, expr)              \
  auto&& lhs##_r_ = (expr);                       \
  if (!lhs##_r_.ok()) return lhs##_r_.error();    \
  auto&& lhs = std::move(lhs##_r_).value()

}  // namespace clouds
