#!/usr/bin/env python3
"""Sampling CPU profiler: run a command, print a flat profile by symbol.

    python3 bench/cpu_sample.py [--interval-ms 1] [--top 25] -- CMD [ARG...]

The command runs as a child.  Every interval the sampler stops it with
PTRACE_INTERRUPT, reads its program counter, and lets it go on.  When
it exits, each PC is mapped through the child's /proc/<pid>/maps to
the file it lies in and then, with `nm`, to the nearest preceding
function symbol of that file: the executable's own symbol table, or a
shared library's dynamic one.  A library PC that no sized symbol of
that table covers (libm's `exp` runs in a local `__exp_fma` that only
the full table names) is charged to the library as `[libm.so.6]`,
never to whatever symbol happens to sit below it.  OCaml names are
shortened: `camlSim__Heap.sift_up_525` prints as `Sim.Heap.sift_up`.

No perf, no kernel support beyond ptrace of one's own child, and no
instrumentation: the profile is of the optimised binary as it runs.
Samples are taken on wall-clock time, so for a CPU-bound command they
are CPU samples; a blocked child shows up in its libc wait.  Only the
main thread is sampled.  x86_64 and aarch64 only.

Prints the sample count, then one line per symbol, most samples first:
share of samples, samples, symbol.  A last line, in the same columns,
sums the OCaml runtime's collector symbols over the whole profile (not
only the lines shown) and splits the share: the minor collector
(`oldify_*`, promotion), the major one (`caml_shared_try_alloc`,
`pool_sweep`, `do_some_marking`, `caml_darken`, ...), and the write
barrier (`caml_modify`, `caml_initialize`).  It reads 0 for a command
that is not an OCaml program.  Exits with the command's status.
"""

import argparse
import bisect
import ctypes
import os
import platform
import re
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_GETREGSET = 0x4204
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
NT_PRSTATUS = 1

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, pid, addr=None, data=None):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


class Iovec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


MACHINE = platform.machine()


def read_pc(pid):
    """The stopped thread's program counter."""
    if MACHINE == "x86_64":
        regs = (ctypes.c_ulong * 27)()  # struct user_regs_struct
        ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
        return regs[16]  # rip
    if MACHINE == "aarch64":
        regs = (ctypes.c_ulong * 34)()  # struct user_pt_regs
        iov = Iovec(ctypes.cast(regs, ctypes.c_void_p), ctypes.sizeof(regs))
        ptrace(PTRACE_GETREGSET, pid, NT_PRSTATUS, ctypes.byref(iov))
        return regs[32]  # pc
    raise SystemExit(f"cpu_sample: unsupported machine {MACHINE}")


def read_maps(pid):
    """(start, end, file offset, path) of every mapping of the child."""
    maps = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                fields = line.split(maxsplit=5)
                start, end = (int(x, 16) for x in fields[0].split("-"))
                path = fields[5].strip() if len(fields) > 5 else ""
                maps.append((start, end, int(fields[2], 16), path))
    except OSError:
        pass
    return maps


def sample(pid, interval, pcs):
    """Sample [pid] until it exits; return its wait status and maps."""
    maps = []
    while True:
        time.sleep(interval)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # already exiting: the wait below reports it
        while True:
            _, status = os.waitpid(pid, 0)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                return status, maps
            if (status >> 16) == PTRACE_EVENT_STOP:
                # our interrupt (or a group stop): read the PC, resume
                try:
                    pcs.append(read_pc(pid))
                    if not maps:
                        maps = read_maps(pid)
                except OSError:
                    pass
                ptrace(PTRACE_CONT, pid)
                break
            # a signal on its way to the child: deliver it, wait again
            ptrace(PTRACE_CONT, pid, None, os.WSTOPSIG(status))


def elf_type(path):
    """2 for a fixed-address executable, 3 for a position-independent one."""
    with open(path, "rb") as f:
        head = f.read(18)
    return int.from_bytes(head[16:18], "little")


def symbols(path):
    """Sorted (address, size or None, name) of the file's function
    symbols: the full table, or the dynamic one of a stripped file."""
    out = []
    for flags in (["-S", "-n", "--defined-only"], ["-D", "-S", "-n", "--defined-only"]):
        try:
            text = subprocess.run(["nm"] + flags + [path], capture_output=True,
                                  text=True, check=False).stdout
        except OSError:
            return []
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[2] in "TtWwi":
                out.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
            elif len(parts) == 3 and parts[1] in "TtWwi":
                out.append((int(parts[0], 16), None, parts[2]))
        if out:
            break
    out.sort(key=lambda s: s[0])
    return out


OCAML_NAME = re.compile(r"^caml([A-Z][\w.]*?)(?:_\d+)?$")


def demangle(name):
    name = name.split("@")[0]  # symbol version: exp@@GLIBC_2.29
    m = OCAML_NAME.match(name)
    return m.group(1).replace("__", ".") if m else name


# The OCaml 5 runtime's collector, by part.  Root scanning
# (`caml_scan_stack` and the frame-table lookups it makes, global and
# local roots) runs for both collectors and counts with the minor one,
# which does it on every collection.
GC_PARTS = [
    ("minor", re.compile(
        r"^(caml_)?(oldify_\w*|empty_minor_heap\w*|minor_collection\w*|"
        r"do_minor_collection\w*|try_update_object_header|"
        r"scan_stack|scan_global_\w*|scan_roots\w*|do_roots\w*|"
        r"do_local_roots\w*|find_frame_descr)$")),
    ("major", re.compile(
        r"^(caml_)?(shared_try_alloc|alloc_shr\w*|pool_\w*|large_alloc\w*|"
        r"sweep\w*|do_some_marking|mark_\w*|darken\w*|"
        r"major_collection_slice\w*|major_gc\w*|ephe_\w*|"
        r"cycle_all_domains\w*|realloc_mark_stack|update_major_slice\w*)$")),
    ("write barrier", re.compile(r"^caml_(modify|initialize)$")),
]


def gc_part(name):
    """The collector part a printed symbol belongs to, or None."""
    for part, pattern in GC_PARTS:
        if pattern.match(name):
            return part
    return None


class Symbolizer:
    def __init__(self, maps, exe):
        self.maps = sorted(maps)
        self.starts = [m[0] for m in self.maps]
        self.exe = exe
        self.tables = {}
        # the load address of each file: its mapping at file offset 0
        self.base = {}
        for start, _, off, path in self.maps:
            if off == 0 and path and path not in self.base:
                self.base[path] = start

    def table(self, path):
        if path not in self.tables:
            syms, bias = [], 0
            try:
                syms = symbols(path)
                if elf_type(path) == 3:
                    bias = self.base.get(path, 0)
            except OSError:
                pass
            self.tables[path] = (syms, [s[0] for s in syms], bias)
        return self.tables[path]

    def name(self, pc):
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return "[unmapped]"
        path = self.maps[i][3]
        if not path.startswith("/"):
            return path or "[anon]"
        syms, addrs, bias = self.table(path)
        j = bisect.bisect_right(addrs, pc - bias) - 1
        lib = f"[{os.path.basename(path)}]"
        if j < 0:
            return lib
        addr, size, name = syms[j]
        if size is not None and pc - bias >= addr + size:
            # past the end of the symbol below: a local function the
            # table does not name
            return lib
        return demangle(name) + ("" if path == self.exe else " " + lib)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--interval-ms", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    cmd = a.command[1:] if a.command[:1] == ["--"] else a.command
    if not cmd:
        ap.error("no command to run")
    if a.interval_ms <= 0 or a.top <= 0:
        ap.error("--interval-ms and --top must be positive")
    child = subprocess.Popen(cmd)  # returns once the command has exec'd
    try:
        ptrace(PTRACE_SEIZE, child.pid)
    except OSError as e:
        child.kill()
        child.wait()
        raise SystemExit(f"cpu_sample: cannot trace the command: {e}")
    pcs = []
    status, maps = sample(child.pid, a.interval_ms / 1000.0, pcs)
    try:
        exe = os.path.realpath(subprocess.run(
            ["sh", "-c", 'command -v "$1"', "sh", cmd[0]], capture_output=True,
            text=True).stdout.strip() or cmd[0])
    except OSError:
        exe = cmd[0]
    sym = Symbolizer(maps, exe)
    counts = {}
    for pc in pcs:
        n = sym.name(pc)
        counts[n] = counts.get(n, 0) + 1
    total = len(pcs)
    print(f"{total} samples of {' '.join(cmd)}", file=sys.stderr)
    for n, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: a.top]:
        print(f"{100.0 * c / total:6.2f}%  {c:6d}  {n}")
    parts = {part: 0 for part, _ in GC_PARTS}
    for n, c in counts.items():
        part = gc_part(n)
        if part is not None:
            parts[part] += c
    gc = sum(parts.values())
    split = ", ".join(
        f"{part} {100.0 * c / max(total, 1):.2f}%" for part, c in parts.items())
    print(f"{100.0 * gc / max(total, 1):6.2f}%  {gc:6d}  [OCaml collector: {split}]")
    if os.WIFSIGNALED(status):
        return 128 + os.WTERMSIG(status)
    return os.WEXITSTATUS(status)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())
