"""Scale ladder for the Lazard round trip, outside the gated benchmark.

Each step runs `laz` -> `laz_inv` -> `laz_of_table` on the class-2 graded
Lie ring of shape (p; 1, ..., 1) that `lazbench/generate.lie_instance("x",
3, p, (1,) * e, "graded", 2)` builds: the base ring of
`generate.triangle_instance("x", 3, p, (1,) * e, "zero", 2)`.  The default
steps are 3^6, 7^4, 5^5 and 5^6 (the soft cap).

Every step runs in a fresh process under its own `ulimit -v`, so the limit
binds that process only.  A measuring process starts the step as its one
child, so the peak RSS it reads from `resource.getrusage(RUSAGE_CHILDREN)`
is that step's alone.  The wall time is that of the round trip, without
the import and the ring's construction.

Run from the root of a checkout (stdlib only here; the steps import numpy
and lazbrace from the checkout named by --root, this one by default):

    python3 tools/ladder.py
    python3 tools/ladder.py --limit-kb 6000000 3^6 5^5
    python3 tools/ladder.py --root ../other-checkout

It prints one Markdown table row per step.
"""

from __future__ import annotations

import argparse
import json
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS = ("3^6", "7^4", "5^5", "5^6")


def _round_trip(root: Path, p: int, e: int) -> dict:
    """The step itself, in the process whose peak RSS is measured."""
    sys.path[:0] = [str(root / "src"), str(root / "lazbench")]
    import generate
    from lazbrace import liering

    L = generate.lie_instance("x", 3, p, (1,) * e, "graded", 2).build()
    start = time.perf_counter()
    G = liering.laz(L)
    T = liering.laz_inv(G)
    ok = liering.laz_of_table(T) == G
    return {"wall_s": time.perf_counter() - start, "ok": bool(ok)}


def _measure(root: Path, step: str, limit_kb: int) -> dict:
    """Run one step as this process's only child, under ulimit -v."""
    p, e = map(int, step.split("^"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--root", str(root), "--run", step]
    start = time.perf_counter()
    proc = subprocess.run(["sh", "-c", f"ulimit -v {limit_kb} && exec {shlex.join(cmd)}"],
                          capture_output=True, text=True)
    out = {"step": step, "n": p ** e, "exit": proc.returncode, "proc_s": time.perf_counter() - start,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    if proc.returncode == 0:
        out.update(json.loads(proc.stdout.splitlines()[-1]))
    else:
        out["error"] = (proc.stderr.strip().splitlines() or ["?"])[-1]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("steps", nargs="*", default=list(STEPS), help="p^e steps (default: %(default)s)")
    ap.add_argument("--limit-kb", type=int, default=6_000_000, help="ulimit -v of each step, in KiB")
    ap.add_argument("--root", type=Path, default=ROOT, help="the checkout whose src/ is measured")
    ap.add_argument("--run", help=argparse.SUPPRESS)  # one step, in the measured process
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # one step, as the measuring process
    args = ap.parse_args(argv)
    if args.run:
        print(json.dumps(_round_trip(args.root.resolve(), *map(int, args.run.split("^")))))
        return 0
    if args.measure:
        print(json.dumps(_measure(args.root.resolve(), args.measure, args.limit_kb)))
        return 0
    print("| step | n | round trip | peak RSS | exit |")
    print("|---|---|---|---|---|")
    for step in args.steps:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--root", str(args.root),
                               "--limit-kb", str(args.limit_kb), "--measure", step],
                              capture_output=True, text=True, check=True)
        r = json.loads(proc.stdout.splitlines()[-1])
        wall = f"{r['wall_s']:.2f} s" + ("" if r["ok"] else " (MISMATCH)") if "wall_s" in r else r["error"]
        print(f"| {step} | {r['n']} | {wall} | {r['peak_rss_mb']:.0f} MB | {r['exit']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
