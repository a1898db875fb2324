// Simulation engine configuration.
//
// The simulation carries real C++ code on cooperatively scheduled
// processes; two interchangeable context-switch engines implement the
// one-runner handshake (docs/SIMCORE.md):
//
//   threads — the original engine: one host std::thread per Process, parked
//             on a condition variable between resumes. Two kernel context
//             switches per event; kept as the reference implementation the
//             fiber engine is proven byte-identical against.
//   fibers  — stackful user-space fibers: per-process stacks switched in
//             user space (sim/fiber.hpp), no kernel involvement, >=10x the
//             event throughput (bench_simcore, EXPERIMENTS.md E10).
//
// Both engines drive the identical Process state machine, so every run is
// bit-for-bit reproducible across engines for a given seed
// (tests/sim_engine_equivalence_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

// Compile-time AddressSanitizer detection (GCC defines __SANITIZE_ADDRESS__,
// clang answers __has_feature). Shared by the fiber switch annotations in
// sim/fiber.cpp and the stack sizing below.
#if defined(__SANITIZE_ADDRESS__)
#define CLOUDS_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLOUDS_SIM_ASAN 1
#endif
#endif
#ifndef CLOUDS_SIM_ASAN
#define CLOUDS_SIM_ASAN 0
#endif

namespace clouds::sim {

enum class Engine : std::uint8_t { threads, fibers };

// Stack reserved per fiber (virtual memory; pages commit lazily, so idle
// fibers cost a few KiB of RSS). A guard region below the stack turns
// overflow into a deterministic fault instead of silent corruption.
// ASan builds get 8x: redzones between locals inflate every frame ~3-4x,
// and the deepest invocation chains (nested object invocations over DSM
// during crash recovery) genuinely overflow 1 MiB under instrumentation.
// Unused by the threads engine (host threads get the default 8 MiB).
inline constexpr std::size_t kFiberStackBytes = CLOUDS_SIM_ASAN ? (8u << 20) : (1u << 20);

struct SimConfig {
  std::uint64_t seed = 1;
  Engine engine = Engine::fibers;
};

inline const char* engineName(Engine e) noexcept {
  return e == Engine::threads ? "threads" : "fibers";
}

}  // namespace clouds::sim
