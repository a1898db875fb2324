#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/config.hpp"  // CLOUDS_SIM_ASAN

#if CLOUDS_SIM_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace clouds::sim {
namespace {

// The switch in flight on this host thread: set by the suspending side,
// read by whatever context lands next (either the target's suspended
// switchTo frame, or launch() on a fresh stack).
thread_local Fiber* t_from = nullptr;
thread_local Fiber* t_to = nullptr;

std::size_t pageSize() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

#if defined(__x86_64__)

// void clouds_fiber_switch(void** save_sp /*rdi*/, void* load_sp /*rsi*/)
//
// Saves the System V callee-saved registers plus the SSE/x87 control words
// on the current stack, parks the stack pointer in *save_sp, and resumes
// load_sp (built either by a previous call here or by the bootstrap frame
// below). No syscalls — this is the whole reason the fiber engine beats the
// thread engine by >=10x (glibc's swapcontext pays a sigprocmask per hop).
asm(R"(
.text
.align 16
.globl clouds_fiber_switch
.hidden clouds_fiber_switch
.type clouds_fiber_switch, @function
clouds_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr (%rsp)
    fnstcw  4(%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw   4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    ret
.size clouds_fiber_switch, .-clouds_fiber_switch
)");

extern "C" void clouds_fiber_switch(void** save_sp, void* load_sp);

#endif  // __x86_64__

StackPool::StackPool(std::size_t stack_bytes) {
  const std::size_t page = pageSize();
  stack_bytes_ = (stack_bytes + page - 1) / page * page;
  // Guard region below the stack: PROT_NONE virtual space, so it costs no
  // memory. It is deliberately wide (not one page) because a function with
  // a large frame moves rsp in one jump and could leap a single page —
  // especially under ASan, whose redzones fatten frames — landing writes in
  // whatever mapping sits below (often another fiber's stack).
  guard_bytes_ = ((std::size_t{256} << 10) + page - 1) / page * page;
}

StackPool::~StackPool() {
  for (const FiberStack& s : free_) munmap(s.base, s.guard_bytes + s.stack_bytes);
}

FiberStack StackPool::acquire() {
  if (!free_.empty()) {
    const FiberStack s = free_.back();
    free_.pop_back();
#if CLOUDS_SIM_ASAN
    // The last owner exited mid-frame, leaving its redzones poisoned; a
    // fresh mapping would have clean shadow, so give the reuse the same.
    __asan_unpoison_memory_region(s.bottom(), s.stack_bytes);
#endif
    return s;
  }
  void* base = mmap(nullptr, guard_bytes_ + stack_bytes_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) {
    std::perror("fiber stack mmap");
    std::abort();
  }
  if (mprotect(base, guard_bytes_, PROT_NONE) != 0) {
    std::perror("fiber guard mprotect");
    std::abort();
  }
  return FiberStack{static_cast<unsigned char*>(base), guard_bytes_, stack_bytes_};
}

void StackPool::release(const FiberStack& stack) { free_.push_back(stack); }

Fiber::Fiber(StackPool& pool, Entry entry, void* arg)
    : pool_(&pool), stack_(pool.acquire()), entry_(entry), arg_(arg) {
  unsigned char* bottom = stack_.bottom();
  const std::size_t stack = stack_.stack_bytes;
  asan_bottom_ = bottom;
  asan_size_ = stack;

#if defined(__x86_64__)
  // Bootstrap frame, shaped exactly like a clouds_fiber_switch save area so
  // the first switch-in "returns" into launch() with a call-convention
  // stack: 16-byte aligned, a null fake return address on top.
  const std::uintptr_t top = reinterpret_cast<std::uintptr_t>(bottom + stack) & ~std::uintptr_t{15};
  std::uint64_t* frame = reinterpret_cast<std::uint64_t*>(top);
  frame[-1] = 0;  // launch()'s "return address": it must never return
  frame[-2] = reinterpret_cast<std::uint64_t>(reinterpret_cast<void*>(&Fiber::launch));
  for (int i = 3; i <= 8; ++i) frame[-i] = 0;  // rbp, rbx, r12..r15
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  unsigned char* ctl = reinterpret_cast<unsigned char*>(top - 72);
  std::memcpy(ctl, &mxcsr, sizeof(mxcsr));
  std::memcpy(ctl + 4, &fcw, sizeof(fcw));
  sp_ = ctl;
#else
  if (getcontext(&ctx_) != 0) {
    std::perror("fiber getcontext");
    std::abort();
  }
  ctx_.uc_stack.ss_sp = bottom;
  ctx_.uc_stack.ss_size = stack;
  ctx_.uc_link = nullptr;
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::launch), 0);
#endif
}

Fiber::~Fiber() {
  if (pool_ != nullptr) pool_->release(stack_);
}

void Fiber::beginSwitch(Fiber& to, bool exiting) {
  t_from = this;
  t_to = &to;
#if CLOUDS_SIM_ASAN
  __sanitizer_start_switch_fiber(exiting ? nullptr : &asan_fake_stack_, to.asan_bottom_,
                                 to.asan_size_);
#else
  (void)exiting;
#endif
}

// Runs as the first thing in the just-entered context (both the resume path
// in switchTo and the first entry in launch). Completes the ASan handoff
// and, the first time an adopted (host-thread) context is suspended, learns
// its stack bounds from the sanitizer so later switches back are annotated.
void Fiber::finishEnter() {
#if CLOUDS_SIM_ASAN
  const void* old_bottom = nullptr;
  std::size_t old_size = 0;
  __sanitizer_finish_switch_fiber(t_to->asan_fake_stack_, &old_bottom, &old_size);
  t_to->asan_fake_stack_ = nullptr;
  if (t_from->pool_ == nullptr) {
    t_from->asan_bottom_ = old_bottom;
    t_from->asan_size_ = old_size;
  }
#endif
}

void Fiber::launch() {
  finishEnter();
  Fiber* self = t_to;
  self->entry_(self->arg_);
  // An entry that falls off the end would "return" to address 0; fail loud
  // instead. Correct entries end with exitTo() or suspend forever.
  std::fprintf(stderr, "fatal: fiber entry returned\n");
  std::abort();
}

void Fiber::switchTo(Fiber& to) {
  beginSwitch(to, /*exiting=*/false);
#if defined(__x86_64__)
  clouds_fiber_switch(&sp_, to.sp_);
#else
  swapcontext(&ctx_, &to.ctx_);
#endif
  finishEnter();
}

void Fiber::exitTo(Fiber& to) {
  beginSwitch(to, /*exiting=*/true);
#if defined(__x86_64__)
  clouds_fiber_switch(&sp_, to.sp_);
#else
  swapcontext(&ctx_, &to.ctx_);
#endif
  std::abort();  // unreachable: nothing ever switches back to an exited fiber
}

}  // namespace clouds::sim
