#include "clouds/class_registry.hpp"

#include <stdexcept>

namespace clouds::obj {

const EntryPointDef* ClassDef::findEntry(const std::string& entry) const {
  for (const auto& e : entries) {
    if (e.name == entry) return &e;
  }
  return nullptr;
}

ClassDef& ClassDef::entry(std::string n, EntryFn fn, OpLabel label) {
  entries.push_back(EntryPointDef{std::move(n), label, std::move(fn)});
  return *this;
}

void ClassRegistry::registerClass(ClassDef def) {
  if (def.name.empty()) throw std::invalid_argument("class with empty name");
  if (classes_.count(def.name) != 0) {
    throw std::invalid_argument("class already registered: " + def.name);
  }
  classes_.emplace(def.name, std::move(def));
}

const ClassDef* ClassRegistry::find(const std::string& name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : &it->second;
}

std::vector<std::string> ClassRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(classes_.size());
  for (const auto& [name, _] : classes_) out.push_back(name);
  return out;
}

}  // namespace clouds::obj
