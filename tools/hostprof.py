#!/usr/bin/env python3
"""Host-time sampling profiler for machines without perf or gdb.

    python3 tools/hostprof.py -- COMMAND [ARGS...]

Builds a small LD_PRELOAD sampler with the system C compiler, runs COMMAND
under it, and prints where the host time went as two tables of 30 rows:
self (the function the sample's program counter was in) and inclusive
(every function on the sampled stack, counted once per sample). Child
processes inherit the sampler, so a driver script that forks the real
program profiles it too; each process writes its own sample file and the
tables merge them all.

The sampler arms a per-thread POSIX timer (timer_create on CLOCK_MONOTONIC,
delivered as SIGPROF to the thread via SIGEV_THREAD_ID) at 10 kHz; the
signal handler records the program counter and walks the frame-pointer
chain. A setitimer(ITIMER_PROF) timer fires far below 10 kHz on some
virtual machines, which is why it is not used. Only each process's main
thread is sampled, which is the whole of a single-threaded simulation.

The frame walk needs frame pointers, so build the profiled program with
-fno-omit-frame-pointer, e.g.

    cmake -S socialbench -B build-prof -DCMAKE_BUILD_TYPE=RelWithDebInfo \\
          -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer

Without them the self table is still right, but inclusive attribution
stops at the first frame that lacks one. Frames in system libraries built
without frame pointers are skipped the same way. Each pointer is checked
before it is read (aligned, above the last frame, within 1 MiB of it, on a
readable page), so a walk ends early instead of faulting.

Symbols come from readelf (ELF load segments and symbol tables, demangled
with c++filt); a program counter maps to the function symbol that contains
it. The exit status is COMMAND's.
"""
import argparse
import bisect
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile

HZ = 10000  # samples per second of the sampled thread
TOP = 30  # rows per table

SAMPLER_C = r"""
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 96
#define BUF_WORDS (1 << 17)

static uint64_t *buf;
static size_t used;
static int out_fd = -1;
static timer_t timer;
static int armed;
static pid_t owner; /* a fork without exec must not flush the parent's samples */

static void flush_buf(void) {
  size_t off = 0;
  while (off < used * 8) {
    ssize_t n = write(out_fd, (char *)buf + off, used * 8 - off);
    if (n <= 0) break;
    off += (size_t)n;
  }
  used = 0;
}

/* A readable-page probe that cannot fault: rt_sigprocmask copies the new
   mask from `addr` before it validates `how`, so an unreadable address
   fails with EFAULT and a readable one with EINVAL (the mask is unchanged). */
static int readable(uintptr_t addr) {
  return syscall(SYS_rt_sigprocmask, ~0, (void *)addr, (void *)0, 8) != 0 && errno != EFAULT;
}

static void on_sample(int sig, siginfo_t *info, void *uc_void) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  ucontext_t *uc = (ucontext_t *)uc_void;
  uint64_t frame[MAX_DEPTH + 1];
  size_t n = 0;
#if defined(__x86_64__)
  frame[n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  uintptr_t floor = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
  frame[n++] = (uint64_t)uc->uc_mcontext.pc;
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
  uintptr_t floor = (uintptr_t)uc->uc_mcontext.sp;
#else
  uintptr_t fp = 0, floor = 0;
  frame[n++] = 0;
#endif
  /* The word at the stack pointer: the return address into the caller
     when the sample lands in a leaf that keeps no frame (memcpy & co). */
  uint64_t at_sp = 0;
  if (floor != 0 && (floor & 7) == 0 && readable(floor)) at_sp = *(uint64_t *)floor;
  uintptr_t good_page = 0;
  while (n <= MAX_DEPTH && fp != 0 && (fp & 7) == 0 && fp >= floor && fp - floor < (1u << 20)) {
    const uintptr_t page = fp & ~(uintptr_t)4095;
    if (page != good_page) {
      if (!readable(fp)) break;
      good_page = page;
    }
    if (((fp + 15) & ~(uintptr_t)4095) != page && !readable(fp + 8)) break;
    const uintptr_t next = ((uintptr_t *)fp)[0];
    const uintptr_t ret = ((uintptr_t *)fp)[1];
    if (ret == 0) break;
    frame[n++] = ret - 1; /* inside the call instruction */
    floor = fp + 16;
    fp = next;
  }
  if (used + n + 2 > BUF_WORDS) flush_buf();
  buf[used++] = n;
  buf[used++] = at_sp;
  memcpy(buf + used, frame, n * 8);
  used += n;
  errno = saved_errno;
}

static void arm(void) {
  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) return;
  struct itimerspec its;
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = 1000000000L / HZ;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, 0) == 0) armed = 1;
}

static void copy_maps(void) {
  char path[64];
  snprintf(path, sizeof(path), "/proc/%d/maps", (int)getpid());
  int in = open(path, O_RDONLY);
  if (in < 0) return;
  char chunk[65536];
  ssize_t got;
  uint64_t marker = ~(uint64_t)0;
  write(out_fd, &marker, 8);
  while ((got = read(in, chunk, sizeof(chunk))) > 0) write(out_fd, chunk, (size_t)got);
  close(in);
}

__attribute__((constructor)) static void hostprof_start(void) {
  const char *dir = getenv("HOSTPROF_DIR");
  if (dir == NULL) return;
  char path[4096];
  snprintf(path, sizeof(path), "%s/samples.%d", dir, (int)getpid());
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0) return;
  owner = getpid();
  buf = mmap(0, BUF_WORDS * 8, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, 0);
  arm();
}

__attribute__((destructor)) static void hostprof_stop(void) {
  if (out_fd < 0 || buf == NULL || getpid() != owner) return;
  if (armed) timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  flush_buf();
  copy_maps();
  close(out_fd);
  out_fd = -1;
}
"""


def build_sampler(workdir):
    src = os.path.join(workdir, "hostprof.c")
    lib = os.path.join(workdir, "libhostprof.so")
    with open(src, "w") as f:
        f.write(SAMPLER_C)
    cc = os.environ.get("CC", "cc")
    subprocess.run([cc, "-O2", "-fPIC", "-shared", f"-DHZ={HZ}", "-o", lib, src, "-lrt"],
                   check=True)
    return lib


def read_samples(path):
    """Returns (samples, maps): (word at sp, PC tuple) pairs and the /proc maps text."""
    with open(path, "rb") as f:
        data = f.read()
    word = lambda i: int.from_bytes(data[i:i + 8], "little")
    samples, pos, end = [], 0, len(data)
    while pos + 8 <= end:
        n = word(pos)
        if n == (1 << 64) - 1:
            return samples, data[pos + 8:].decode(errors="replace")
        samples.append((word(pos + 8), tuple(word(pos + 16 + 8 * i) for i in range(n))))
        pos += 16 + 8 * n
    return samples, ""


def parse_maps(text):
    maps = []
    for line in text.splitlines():
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return maps


class Module:
    """Load segments and function symbols of one ELF file, via readelf."""

    def __init__(self, path):
        self.path = path
        self.loads = []
        out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        syms = {}
        out = subprocess.run(["readelf", "-sW", path], capture_output=True, text=True).stdout
        for line in out.splitlines():
            f = line.split()
            if len(f) >= 8 and f[3] in ("FUNC", "IFUNC") and f[6] != "UND":
                value, size = int(f[1], 16), int(f[2], 0)
                name = re.sub(r"@.*$", "", f[7])
                if value and (value not in syms or size > syms[value][0]):
                    syms[value] = (size, name)
        self.starts = sorted(syms)
        self.syms = [syms[s] for s in self.starts]

    def vaddr(self, file_off):
        for off, vaddr, filesz in self.loads:
            if off <= file_off < off + filesz:
                return file_off - off + vaddr
        return file_off

    def symbol(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0:
            size, name = self.syms[i]
            if vaddr < self.starts[i] + max(size, 1) or size == 0:
                return name
        return None


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), capture_output=True,
                         text=True).stdout.splitlines()
    return dict(zip(names, out)) if len(out) == len(names) else {n: n for n in names}


def short(name, width):
    # Drop argument lists and template arguments: the function is enough.
    depth, out = 0, []
    for ch in name:
        if ch in "<(":
            if depth == 0:
                out.append("<>" if ch == "<" else "()")
            depth += 1
        elif ch in ">)":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    s = "".join(out).replace("()", "")
    return s if len(s) <= width else s[:width - 3] + "..."


def profile(cmd, workdir):
    lib = build_sampler(workdir)
    env = dict(os.environ, HOSTPROF_DIR=workdir)
    env["LD_PRELOAD"] = " ".join(filter(None, [lib, os.environ.get("LD_PRELOAD")]))
    status = subprocess.run(cmd, env=env).returncode

    modules, stacks = {}, []
    for name in sorted(os.listdir(workdir)):
        if not name.startswith("samples."):
            continue
        samples, maps_text = read_samples(os.path.join(workdir, name))
        maps = parse_maps(maps_text)
        starts = [m[0] for m in maps]
        cache = {}

        def resolve(pc):
            """The containing function, "[module]" when the module has no
            symbol there, or None outside every executable mapping."""
            if pc not in cache:
                i = bisect.bisect_right(starts, pc) - 1
                sym = None
                if i >= 0 and pc < maps[i][1]:
                    lo, _, off, path = maps[i]
                    if path not in modules:
                        modules[path] = Module(path)
                    mod = modules[path]
                    sym = mod.symbol(mod.vaddr(pc - lo + off)) or f"[{os.path.basename(path)}]"
                cache[pc] = sym
            return cache[pc]

        for at_sp, stack in samples:
            if not stack:
                continue
            names = [resolve(pc) or "[unknown]" for pc in stack]
            leaf = names[0]
            if leaf.startswith("["):
                # Unsymbolized code (a system library's local function):
                # name the caller its return address points into, if any.
                caller = resolve(at_sp - 1)
                if caller is not None and not caller.startswith("["):
                    leaf = f"{leaf} <- {caller}"
            stacks.append((leaf, names))
    total = len(stacks)
    if total == 0:
        print("hostprof: no samples recorded", file=sys.stderr)
        return status or 1
    # Count by printed label, so overloads and instantiations that print
    # alike form one row (and one inclusive count per sample).
    pretty = demangle({n for leaf, names in stacks for n in leaf.split(" <- ") + names})
    label = lambda key: " <- ".join(short(pretty.get(n, n), 70) for n in key.split(" <- "))
    selfc = collections.Counter(label(leaf) for leaf, _ in stacks)
    incl = collections.Counter(l for _, names in stacks for l in {label(n) for n in names})
    print(f"# hostprof: {total} samples at {HZ} Hz ({total / HZ:.2f} s sampled)")
    for title, counter in (("self", selfc), ("inclusive", incl)):
        print(f"\n{title:>9}  function")
        for name, n in counter.most_common(TOP):
            print(f"{100.0 * n / total:8.2f}%  {name}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    workdir = tempfile.mkdtemp(prefix="hostprof-")
    try:
        return profile(cmd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
