// Clouds classes (paper §2.4).
//
// "To the programmer, there are two kinds of Clouds objects: classes and
//  instances. A class is a template that is used to generate instances."
//
// The paper's classes are CC++ / Distributed Eiffel modules compiled to
// native code and loaded onto a data server. The substitution here
// (DESIGN.md): entry points are registered C++ callables, while the class's
// *code segment* is still a real demand-paged segment — so the operating
// system's view of a class (a module whose code pages are fetched on use)
// is preserved, and instances of one class share one code segment exactly
// as compiled code would be shared.
//
// Entry points carry the consistency label of paper §5.2.1: "Each operation
// has a static label that declares the consistency needs of the operation.
// The labels are S ... LCP ... and GCP."
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "clouds/value.hpp"
#include "ra/types.hpp"

namespace clouds::obj {

class ObjectContext;

enum class OpLabel : std::uint8_t { s = 0, lcp = 1, gcp = 2 };

// Entry-point bodies may fail with ordinary errors (bad arguments) and are
// aborted via exception when a consistency scope dies (see TxAborted).
using EntryFn = std::function<Result<Value>(ObjectContext&, const ValueList&)>;

struct EntryPointDef {
  std::string name;
  OpLabel label = OpLabel::s;
  EntryFn fn;
};

struct ClassDef {
  std::string name;
  std::uint64_t code_size = 2 * ra::kPageSize;        // simulated compiled-code bytes
  std::uint64_t data_size = ra::kPageSize;            // persistent data segment
  std::uint64_t pheap_size = 4 * ra::kPageSize;       // persistent heap segment
  std::uint64_t vheap_size = 4 * ra::kPageSize;       // volatile heap (per activation)
  EntryFn constructor;                                // optional; runs at instantiation
  std::vector<EntryPointDef> entries;

  const EntryPointDef* findEntry(const std::string& entry) const;

  // Fluent helpers for registration code.
  ClassDef& entry(std::string n, EntryFn fn, OpLabel label = OpLabel::s);
};

class ClassRegistry {
 public:
  // Registering the same class name twice is a programming error.
  void registerClass(ClassDef def);
  const ClassDef* find(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, ClassDef> classes_;
};

}  // namespace clouds::obj
