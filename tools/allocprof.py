#!/usr/bin/env python3
"""Heap allocation counter: how many allocations a program makes, and where.

    python3 tools/allocprof.py -- COMMAND [ARGS...]

Builds a small LD_PRELOAD library with the system C compiler, runs COMMAND
under it, and prints the totals (allocation calls and bytes requested) and
one table of 30 rows: calls and bytes by the first caller frame outside
libc, libstdc++ and the allocator helpers, i.e. the program function that
asked for the memory. Child processes inherit the library, so a driver
script that forks the real program counts it too; the table merges every
process.

The library replaces malloc, calloc, realloc and the operator new family
(plain, nothrow, aligned); each forwards to glibc's own allocator and is
counted once, so an operator new is one call, not two. Frees are not
counted. It records the return address of each call and walks the
frame-pointer chain above it, and when the call came from a library
frame without a frame pointer (libstdc++'s string code, say) it takes the
first word on that library's stack that points into the program's code as
the caller. Allocator helpers are functions of namespaces std and
__gnu_cxx instantiated in the program (vector growth, std::function and
shared_ptr storage, map nodes) and operator new itself; the table skips
them to name their caller.

The frame walk needs frame pointers, so build the program with
-fno-omit-frame-pointer, as for tools/hostprof.py:

    cmake -S socialbench -B build-prof -DCMAKE_BUILD_TYPE=RelWithDebInfo \\
          -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer

Symbols come from tools/hostprof.py's ELF reader. The exit status is
COMMAND's.
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

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostprof  # noqa: E402  (the ELF reader, demangler and name shortener)

DEPTH = 8  # words recorded per call site: return address, scanned caller, 6 frames

COUNTER_C = r"""
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

#define SLOTS (1 << 16)
#define SCAN_WORDS 64

struct site {
  uint64_t pcs[DEPTH];
  uint64_t calls, bytes;
};

static struct site *table;
static uint64_t lost_calls, lost_bytes; /* sites past a full table */
static uintptr_t exe_lo, exe_hi;       /* the program's code */
static int out_fd = -1;
static pid_t owner; /* a fork without exec must not write the parent's counts */
static int lock;

/* A readable-page probe that cannot fault (see tools/hostprof.py). */
static int readable(uintptr_t addr) {
  return syscall(SYS_rt_sigprocmask, ~0, (void *)addr, (void *)0, 8) != 0 && errno != EFAULT;
}

static int in_exe(uint64_t pc) { return pc >= exe_lo && pc < exe_hi; }

/* fp is the frame of the replaced allocator function that was called. */
static void record(size_t bytes, uintptr_t fp) {
  if (table == NULL) return;
  const int saved_errno = errno;
  uint64_t pcs[DEPTH];
  memset(pcs, 0, sizeof(pcs));
  pcs[0] = ((uint64_t *)fp)[1];
  uintptr_t next = ((uintptr_t *)fp)[0];
  uintptr_t good_page = fp & ~(uintptr_t)4095;
  if (!in_exe(pcs[0])) {
    /* Entered from a library frame that keeps no frame pointer: the return
       address into the program lies on that frame's stack, below the next
       frame pointer. */
    const uintptr_t end = fp + 16 + 8 * SCAN_WORDS;
    for (uintptr_t p = fp + 16; p < end && (next <= fp || p < next); p += 8) {
      const uintptr_t page = p & ~(uintptr_t)4095;
      if (page != good_page) {
        if (!readable(p)) break;
        good_page = page;
      }
      if (in_exe(*(uint64_t *)p)) {
        pcs[1] = *(uint64_t *)p;
        break;
      }
    }
  }
  int n = 2;
  uintptr_t floor = fp + 16;
  fp = next;
  while (n < DEPTH && fp != 0 && (fp & 7) == 0 && fp >= floor && fp - floor < (1u << 20)) {
    const uintptr_t page = fp & ~(uintptr_t)4095;
    if (page != good_page) {
      if (!readable(fp)) break;
      good_page = page;
    }
    if (((fp + 15) & ~(uintptr_t)4095) != page && !readable(fp + 8)) break;
    const uint64_t ret = ((uint64_t *)fp)[1];
    if (ret == 0) break;
    pcs[n++] = ret;
    floor = fp + 16;
    fp = ((uintptr_t *)fp)[0];
  }
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < DEPTH; ++i) h = (h ^ pcs[i]) * 0x100000001b3ULL;
  while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {
  }
  for (uint64_t probe = 0; probe < SLOTS; ++probe) {
    struct site *s = &table[(h + probe) & (SLOTS - 1)];
    if (s->calls == 0) memcpy(s->pcs, pcs, sizeof(pcs));
    if (memcmp(s->pcs, pcs, sizeof(pcs)) == 0) {
      ++s->calls;
      s->bytes += bytes;
      goto done;
    }
  }
  ++lost_calls;
  lost_bytes += bytes;
done:
  __atomic_store_n(&lock, 0, __ATOMIC_RELEASE);
  errno = saved_errno;
}

#define HERE ((uintptr_t)__builtin_frame_address(0))

void *malloc(size_t n) {
  record(n, HERE);
  return __libc_malloc(n);
}

void *calloc(size_t k, size_t n) {
  record(k * n, HERE);
  return __libc_calloc(k, n);
}

void *realloc(void *p, size_t n) {
  record(n, HERE);
  return __libc_realloc(p, n);
}

/* The operator new family, by mangled name. A failed plain or aligned new
   aborts: C code cannot throw std::bad_alloc. */
static void *must(void *p) {
  if (p == NULL) abort();
  return p;
}
void *_Znwm(size_t n) {
  record(n, HERE);
  return must(__libc_malloc(n ? n : 1));
}
void *_Znam(size_t n) {
  record(n, HERE);
  return must(__libc_malloc(n ? n : 1));
}
void *_ZnwmRKSt9nothrow_t(size_t n, const void *tag) {
  (void)tag;
  record(n, HERE);
  return __libc_malloc(n ? n : 1);
}
void *_ZnamRKSt9nothrow_t(size_t n, const void *tag) {
  (void)tag;
  record(n, HERE);
  return __libc_malloc(n ? n : 1);
}
void *_ZnwmSt11align_val_t(size_t n, size_t align) {
  record(n, HERE);
  return must(__libc_memalign(align, n ? n : 1));
}
void *_ZnamSt11align_val_t(size_t n, size_t align) {
  record(n, HERE);
  return must(__libc_memalign(align, n ? n : 1));
}
void *_ZnwmSt11align_val_tRKSt9nothrow_t(size_t n, size_t align, const void *tag) {
  (void)tag;
  record(n, HERE);
  return __libc_memalign(align, n ? n : 1);
}
void *_ZnamSt11align_val_tRKSt9nothrow_t(size_t n, size_t align, const void *tag) {
  (void)tag;
  record(n, HERE);
  return __libc_memalign(align, n ? n : 1);
}

/* The executable's code range and the maps text, with no allocation. */
static char maps_text[1 << 20];
static size_t maps_len;

static void read_maps(void) {
  int in = open("/proc/self/maps", O_RDONLY);
  if (in < 0) return;
  ssize_t got;
  while (maps_len < sizeof(maps_text) - 1 &&
         (got = read(in, maps_text + maps_len, sizeof(maps_text) - 1 - maps_len)) > 0) {
    maps_len += (size_t)got;
  }
  close(in);
  maps_text[maps_len] = 0;
}

static void find_exe(void) {
  char exe[4096];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return;
  exe[len] = 0;
  read_maps();
  for (char *line = maps_text; line && *line;) {
    char *end = strchr(line, '\n');
    if (end) *end = 0;
    unsigned long lo, hi;
    char perms[8];
    const char *path = strchr(line, '/');
    if (path && strcmp(path, exe) == 0 && sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3 &&
        perms[2] == 'x') {
      exe_lo = lo;
      exe_hi = hi;
    }
    if (end) *end = '\n';
    line = end ? end + 1 : NULL;
  }
  maps_len = 0;
}

__attribute__((constructor(101))) static void allocprof_start(void) {
  const char *dir = getenv("ALLOCPROF_DIR");
  if (dir == NULL) return;
  char path[4096];
  snprintf(path, sizeof(path), "%s/sites.%d", dir, (int)getpid());
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0) return;
  owner = getpid();
  find_exe();
  void *mem = mmap(0, sizeof(struct site) * SLOTS, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem != MAP_FAILED) table = mem;
}

static void put(const void *p, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = write(out_fd, (const char *)p + off, n - off);
    if (w <= 0) break;
    off += (size_t)w;
  }
}

__attribute__((destructor)) static void allocprof_stop(void) {
  if (out_fd < 0 || table == NULL || getpid() != owner) return;
  struct site *t = table;
  table = NULL; /* stop counting: what follows is the tool's own work */
  for (size_t i = 0; i < SLOTS; ++i) {
    if (t[i].calls != 0) put(&t[i], sizeof(t[i]));
  }
  struct site lost;
  memset(&lost, 0, sizeof(lost));
  lost.calls = lost_calls;
  lost.bytes = lost_bytes;
  if (lost_calls != 0) put(&lost, sizeof(lost));
  const uint64_t marker = ~(uint64_t)0;
  put(&marker, 8);
  read_maps();
  put(maps_text, maps_len);
  close(out_fd);
  out_fd = -1;
}
"""

# Code whose frames never name a caller: the C and C++ runtimes, the loader
# and this tool's own library.
RUNTIME = re.compile(r"^(libc\.so|libc-|libstdc\+\+|libgcc_s|libm\.so|ld-linux|liballocprof)")
# Allocator helpers by mangled name: functions (and lambdas) of namespaces
# std (St and the Sa/Sb/Ss/Si/So/Sd abbreviations) and __gnu_cxx, and the
# operator new family.
HELPER = re.compile(r"^_ZZ?(?:N[rVKRO]*)?(?:S[tabsiod]|9__gnu_cxx|n[wa])")


def build_counter(workdir):
    src = os.path.join(workdir, "allocprof.c")
    lib = os.path.join(workdir, "liballocprof.so")
    with open(src, "w") as f:
        f.write(COUNTER_C)
    cc = os.environ.get("CC", "cc")
    subprocess.run([cc, "-O2", "-fPIC", "-shared", "-fno-omit-frame-pointer", f"-DDEPTH={DEPTH}",
                    "-o", lib, src], check=True)
    return lib


def read_sites(path):
    """Returns (sites, maps): (calls, bytes, pcs) triples and the /proc maps text."""
    with open(path, "rb") as f:
        data = f.read()
    word = lambda i: int.from_bytes(data[i:i + 8], "little")
    size = 8 * (DEPTH + 2)
    sites, pos = [], 0
    while pos + 8 <= len(data):
        if word(pos) == (1 << 64) - 1:
            return sites, data[pos + 8:].decode(errors="replace")
        pcs = tuple(word(pos + 8 * i) for i in range(DEPTH))
        sites.append((word(pos + 8 * DEPTH), word(pos + 8 * DEPTH + 8), pcs))
        pos += size
    return sites, ""


def profile(cmd, workdir):
    lib = build_counter(workdir)
    env = dict(os.environ, ALLOCPROF_DIR=workdir)
    env["LD_PRELOAD"] = " ".join(filter(None, [lib, os.environ.get("LD_PRELOAD")]))
    status = subprocess.run(cmd, env=env).returncode

    modules, rows, processes = {}, [], 0
    for name in sorted(os.listdir(workdir)):
        if not name.startswith("sites."):
            continue
        processes += 1
        sites, maps_text = read_sites(os.path.join(workdir, name))
        maps = hostprof.parse_maps(maps_text)
        starts = [m[0] for m in maps]

        def resolve(pc):
            """(module basename, mangled symbol or None), or None outside every mapping."""
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                return None
            lo, _, off, path = maps[i]
            if path not in modules:
                modules[path] = hostprof.Module(path)
            mod = modules[path]
            return os.path.basename(path), mod.symbol(mod.vaddr(pc - lo + off))

        for calls, nbytes, pcs in sites:
            caller = "[no frame]"
            for pc in pcs:
                where = resolve(pc - 1) if pc else None  # inside the call instruction
                if where is None or RUNTIME.match(where[0]):
                    continue
                module, sym = where
                if sym is None:
                    caller = f"[{module}]"
                    break
                if not HELPER.match(sym):
                    caller = sym
                    break
            rows.append((caller, calls, nbytes))
    if not rows:
        print("allocprof: no allocation recorded", file=sys.stderr)
        return status or 1
    pretty = hostprof.demangle({c for c, _, _ in rows if not c.startswith("[")})
    calls_by, bytes_by = collections.Counter(), collections.Counter()
    for caller, calls, nbytes in rows:
        label = hostprof.short(pretty.get(caller, caller), 70)
        calls_by[label] += calls
        bytes_by[label] += nbytes
    total_calls, total_bytes = sum(calls_by.values()), sum(bytes_by.values())
    print(f"# allocprof: {total_calls} allocation calls, {total_bytes / 1e6:.1f} MB requested, "
          f"{processes} process{'es' if processes != 1 else ''}")
    print(f"\n{'calls':>9} {'%':>6} {'MB':>9}  first caller outside libc, libstdc++ and the "
          "allocator helpers")
    for label, n in calls_by.most_common(hostprof.TOP):
        print(f"{n:9d} {100.0 * n / total_calls:6.2f} {bytes_by[label] / 1e6:9.2f}  {label}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    workdir = tempfile.mkdtemp(prefix="allocprof-")
    try:
        return profile(cmd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
