#!/usr/bin/env python3
"""Dead-code gate: library functions that no linked program keeps.

    python3 tools/deadcode.py BUILD_DIR [BUILD_DIR ...]

Lists every function defined in a member of a libclouds_*.a archive under
the build directories that no executable under them contains, one
demangled name per line, and exits 1 when the list is not empty (0 when it
is, 2 when a directory holds no archive or no executable).

A function here is a strong text symbol, global or file-local (nm types T
and t). Inline and template functions (weak symbols) are left out: a
translation unit emits one only where something calls it, so one that only
dead code calls goes away with that code.

The answer is only as good as the build. Configure every tree with

    -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

and build all targets: -O0 keeps the optimizer from inlining a function
into its callers, and -ffunction-sections with --gc-sections lets the
linker drop each function nothing reaches, not only whole archive members.
A virtual function stays reachable through its class's vtable, so the gate
cannot see a virtual override that nothing calls.
"""
import pathlib
import subprocess
import sys

FUNCTION_TYPES = {"T", "t"}


def symbols(path, types=None):
    """Defined symbol names in an object, archive or executable."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(parts[2])
    return names


def executables(root):
    """ELF executables of a build tree, leaving out CMake's probe programs."""
    for path in sorted(root.rglob("*")):
        if ("CMakeFiles" in path.parts or not path.is_file() or
                path.suffix in (".a", ".so") or not path.stat().st_mode & 0o111):
            continue
        with open(path, "rb") as f:
            if f.read(4) == b"\x7fELF":
                yield path


def main(argv):
    if not argv or any(a.startswith("-") for a in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    roots = [pathlib.Path(a) for a in argv]
    archives = sorted(a for r in roots for a in r.rglob("libclouds_*.a"))
    programs = [p for r in roots for p in executables(r)]
    if not archives or not programs:
        print("deadcode: no libclouds_*.a archive or no executable under "
              + " ".join(argv), file=sys.stderr)
        return 2

    defined = set().union(*(symbols(a, FUNCTION_TYPES) for a in archives))
    kept = set().union(*(symbols(p) for p in programs))
    dead = sorted(defined - kept)
    names = subprocess.run(["c++filt"], input="\n".join(dead), check=True,
                           capture_output=True, text=True).stdout.split("\n")
    for name in sorted(n for n in names if n):
        print(name)
    print(f"deadcode: {len(dead)} of {len(defined)} functions in {len(archives)} "
          f"archives are kept by none of {len(programs)} executables",
          file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
