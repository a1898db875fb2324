// Invocation parameters and results.
//
// "These arguments/results are strictly data; they may not be addresses.
//  This restriction is mandatory as addresses in one object are meaningless
//  in the context of another object." (paper §2.2)
//
// Value is the closed universe of data that may cross an object boundary:
// scalars, strings, byte blobs, and lists thereof. It serializes to a flat
// byte string, which is what actually travels in remote invocations.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace clouds::obj {

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  Value() = default;
  Value(std::int64_t v) : v_(v) {}            // NOLINT(google-explicit-constructor)
  Value(int v) : v_(std::int64_t{v}) {}       // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(bool v) : v_(v) {}                    // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(Bytes v) : v_(std::move(v)) {}        // NOLINT(google-explicit-constructor)
  Value(ValueList v) : v_(std::move(v)) {}    // NOLINT(google-explicit-constructor)

  bool isNull() const noexcept { return std::holds_alternative<std::monostate>(v_); }
  bool isInt() const noexcept { return std::holds_alternative<std::int64_t>(v_); }
  bool isDouble() const noexcept { return std::holds_alternative<double>(v_); }
  bool isBool() const noexcept { return std::holds_alternative<bool>(v_); }
  bool isString() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool isBytes() const noexcept { return std::holds_alternative<Bytes>(v_); }
  bool isList() const noexcept { return std::holds_alternative<ValueList>(v_); }

  // Checked accessors: Errc::bad_argument on type mismatch.
  Result<std::int64_t> asInt() const;
  Result<double> asDouble() const;
  Result<bool> asBool() const;
  Result<std::string> asString() const;
  Result<Bytes> asBytes() const;
  Result<ValueList> asList() const;

  // Unchecked views for code that just validated the type.
  std::int64_t intOr(std::int64_t fallback) const;
  const ValueList& list() const { return std::get<ValueList>(v_); }

  friend bool operator==(const Value&, const Value&) = default;

  std::string toString() const;  // debugging / shell display

  // A list is a u32 count, then each value (docs/PROTOCOLS.md, "Values").
  static Bytes encodeList(const ValueList& values);
  static Result<ValueList> decodeList(ByteSpan data);

  // A value is its tag byte, then what the tag calls for: the one statement
  // of the layout (common/codec.hpp). A reader refuses a tag it does not
  // know.
  template <typename V, typename F>
  static void fields(V& v, F& f) {
    auto tag = static_cast<Tag>(v.v_.index());
    f(tag);
    switch (tag) {
      case Tag::null:
        return;
      case Tag::integer:
        f(alternative<Tag::integer>(v));
        return;
      case Tag::real:
        f(alternative<Tag::real>(v));
        return;
      case Tag::boolean:
        f(alternative<Tag::boolean>(v));
        return;
      case Tag::text:
        f(alternative<Tag::text>(v));
        return;
      case Tag::blob:
        f(alternative<Tag::blob>(v));
        return;
      case Tag::list:
        f(alternative<Tag::list>(v));
        return;
    }
    f.require(false, [tag] {
      return "unknown value tag " + std::to_string(static_cast<unsigned>(tag));
    });
  }

 private:
  // A tag is its alternative's index in v_.
  enum class Tag : std::uint8_t {
    null = 0,
    integer = 1,
    real = 2,
    boolean = 3,
    text = 4,
    blob = 5,
    list = 6,
  };

  // The alternative `tag` names: a writer's value holds it, and a reader's
  // value becomes it.
  template <Tag tag, typename V>
  static auto& alternative(V& v) {
    constexpr auto index = static_cast<std::size_t>(tag);
    if constexpr (std::is_const_v<V>) {
      return std::get<index>(v.v_);
    } else {
      return v.v_.template emplace<index>();
    }
  }

  std::variant<std::monostate, std::int64_t, double, bool, std::string, Bytes, ValueList> v_;
};

}  // namespace clouds::obj
