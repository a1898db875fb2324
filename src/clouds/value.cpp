#include "clouds/value.hpp"

namespace clouds::obj {

namespace {
Error typeError(const char* want) {
  return makeError(Errc::bad_argument, std::string("value is not ") + want);
}
}  // namespace

Result<std::int64_t> Value::asInt() const {
  if (auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  return typeError("an integer");
}
Result<double> Value::asDouble() const {
  if (auto* p = std::get_if<double>(&v_)) return *p;
  if (auto* p = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*p);
  return typeError("a real");
}
Result<bool> Value::asBool() const {
  if (auto* p = std::get_if<bool>(&v_)) return *p;
  return typeError("a boolean");
}
Result<std::string> Value::asString() const {
  if (auto* p = std::get_if<std::string>(&v_)) return *p;
  return typeError("a string");
}
Result<Bytes> Value::asBytes() const {
  if (auto* p = std::get_if<Bytes>(&v_)) return *p;
  return typeError("a byte blob");
}
Result<ValueList> Value::asList() const {
  if (auto* p = std::get_if<ValueList>(&v_)) return *p;
  return typeError("a list");
}

std::int64_t Value::intOr(std::int64_t fallback) const {
  if (auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  return fallback;
}

std::string Value::toString() const {
  struct Visitor {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const { return std::to_string(v); }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(const std::string& v) const { return '"' + v + '"'; }
    std::string operator()(const Bytes& v) const {
      return "<" + std::to_string(v.size()) + " bytes>";
    }
    std::string operator()(const ValueList& v) const {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) s += ", ";
        s += v[i].toString();
      }
      return s + "]";
    }
  };
  return std::visit(Visitor{}, v_);
}

Bytes Value::encodeList(const ValueList& values) { return codec::encode(values).take(); }

Result<ValueList> Value::decodeList(ByteSpan data) { return codec::decode<ValueList>(data); }

}  // namespace clouds::obj
