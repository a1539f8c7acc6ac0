"""Scale ladder for the Lazard round trip and the CLI, outside the gated
benchmark.

A step `p^e` runs `laz` -> `laz_inv` -> `laz_of_table` on the class-2
graded Lie ring of shape (p; 1, ..., 1) that `lazbench/generate.lie_instance("x",
3, p, (1,) * e, "graded", 2)` builds: the base ring of
`generate.triangle_instance("x", 3, p, (1,) * e, "zero", 2)`.  Its time is
that of the round trip, without the import and the ring's construction.

A step `convert:p^e` writes that post-Lie ring's file, then runs
`python -m lazbrace convert <file> --to brace -o <out>` as the measured
process: the flow with its checks, and the brace file streamed to `out`
(a temporary directory, removed afterwards).  A step `roundtrip:p^e`
writes the same file and runs `python -m lazbrace roundtrip <file>`: the
flow and the log with their checks, and the comparison of the ring
written back with the file; it passes when the process exits 0 and
prints `roundtrip: exact`.  The time of either is that of the whole
process, import included; a failed step shows its exit code, its last
stderr line and how many stderr lines it wrote.

A step `check:p^e` runs `python -m lazbrace check <file>` on that ring's
brace file, which the measuring process computes (with check=False) and
writes before the measured process starts: the parse of the brace file
and its verification.  It passes when the process exits 0.  The output
column shows the size of the brace file that a convert step writes or a
check step reads.

A step `flow:p^e` builds that post-Lie ring and times
`lazcorr.post_lie_to_brace(P, check=True)` in-library.  A step `log:p^e`
times `lazcorr.brace_to_post_lie(B, check=True)` on the ring's brace,
whose two group tables the measuring process computes (with
check=False) and saves as one `.npz` file before the measured process
starts; it passes when the ring it returns is written as the ring it
came from.  So the peak RSS of either holds one direction of the
correspondence and its checks, with the import and, for `log`, the two
tables it reads.  A step `root-diff:p^e` reads the tables of the brace of
the negated-bracket triangle on the same Lie ring (a > b = -[a, b], so
circ != dot and no lambda_a is the identity), saved in the same way, and
times `lazcorr.lambda_derivative(B, lazcorr.brace_to_post_lie(B,
check=True))`: the log, then the triangle recovered from lambda by
averaging against a root of unity; it passes when that triangle is the
logged one.

A step `transfer:p^e` builds that post-Lie ring and its flow (with
check=False), then times `lazcorr.transfer_report(P, flow,
include_subgroups=True)` in-library: the sweep of every additive subgroup
on both sides, and Fix, Soc, Ann and right nilpotency.  The measured
process is fresh, so the per-shape cache of the subgroup enumeration
starts empty and the time includes building it.  It passes when the
report is ok.

A step `kind:neg:p^e` (for flow, log, transfer, roundtrip, check and convert) runs
the step `kind:p^e` on the negated-bracket triangle of the same Lie ring
in place of the zero triangle, whose brace has circ == dot and lambda_a =
id for every a; the step names without `neg` or `fil` keep the zero
triangle, so both series stay comparable.  A step `kind:fil:p^e` (for the
same kinds) runs it on the filiform ring [g1, gi] = g(i+1), 2 <= i <=
min(e - 1, p - 1), of Lie class min(e, p) - 1 on (p; 1, ..., 1) (class p
- 1 = 4 at 5^5 and 5^6, the edge of the correspondence, where BCH, P and
Q reach degree p - 1), with the negated-bracket triangle; it is built
here from lazbrace alone, not by lazbench.

The default steps are 3^6, 7^4, 5^5 and 5^6 (the soft cap), then the
convert, roundtrip and check steps at 5^5 and 5^6; the flow, log,
transfer and root-diff steps run when named.

Every step runs in a fresh process under its own `ulimit -v`, so the limit
binds that process only.  A measuring process starts the step as its one
child, so the peak RSS it reads from `resource.getrusage(RUSAGE_CHILDREN)`
is that step's alone.

Run from the root of a checkout (stdlib only at the top; the steps, and
the process that writes a convert step's file, import numpy and lazbrace
from the checkout named by --root, this one by default):

    python3 tools/ladder.py
    python3 tools/ladder.py --limit-kb 6000000 3^6 5^5 convert:5^5 roundtrip:5^5
    python3 tools/ladder.py flow:5^5 log:5^5 check:5^5 root-diff:5^5
    python3 tools/ladder.py flow:neg:5^5 log:neg:5^5 roundtrip:neg:5^5 check:neg:5^5
    python3 tools/ladder.py flow:fil:5^5 log:fil:5^5 roundtrip:fil:5^5 check:fil:5^5 convert:fil:5^5
    python3 tools/ladder.py transfer:3^4 transfer:neg:3^5 transfer:neg:5^4
    python3 tools/ladder.py --root ../other-checkout

It prints one Markdown table row per step.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS = ("3^6", "7^4", "5^5", "5^6", "convert:5^5", "convert:5^6", "roundtrip:5^5", "roundtrip:5^6",
         "check:5^5", "check:5^6")


def _use_checkout(root: Path) -> None:
    """Import lazbrace and lazbench's generator from the checkout `root`,
    before any other copy on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "lazbench")]


def _post_lie(p: int, e: int, triangle: str = "zero"):
    """A step's post-Lie ring with the triangle "zero" or "neg", built from
    the checkout, or the filiform ring of a "fil" step."""
    if triangle == "fil":
        from lazbrace.liering import LieRingSC
        from lazbrace.modarith import PShape
        from lazbrace.postlie import PostLieRing

        units = [tuple(int(j == i) for j in range(e)) for i in range(e)]
        L = LieRingSC.from_brackets(PShape(p, (1,) * e),
                                    {(0, i - 1): units[i] for i in range(2, min(e - 1, p - 1) + 1)})
        return PostLieRing(L, L.shape.reduce(-L.sc))
    import generate

    return generate.triangle_instance("x", 3, p, (1,) * e, triangle, 2).build()


def _parse_step(step: str) -> tuple[str, str, int, int]:
    """(kind, triangle, p, e) of a step `[kind:[neg:|fil:]]p^e`; the triangle
    is "neg" or "fil" when named, "neg" for root-diff, and "zero" otherwise."""
    *head, size = step.split(":")
    kind = head[0] if head else ""
    triangle = head[1] if len(head) > 1 else "neg" if kind == "root-diff" else "zero"
    p, e = map(int, size.split("^"))
    return kind, triangle, p, e


def _run(step: str, tables: Path | None) -> dict:
    """The step itself, in the process whose peak RSS is measured."""
    kind, triangle, p, e = _parse_step(step)
    import generate
    import numpy as np
    from lazbrace import formats, lazcorr, liering
    from lazbrace.skewbrace import SkewBrace

    if kind:
        P = _post_lie(p, e, triangle)
    else:
        L = generate.lie_instance("x", 3, p, (1,) * e, "graded", 2).build()
    if kind == "transfer":
        flow = lazcorr.post_lie_to_brace(P, check=False)
    if kind in ("log", "root-diff"):
        with np.load(tables) as npz:
            B = SkewBrace(*(liering.FinGroup(npz[part], int(npz["identity"])) for part in ("dot", "circ")))
    start = time.perf_counter()
    if kind == "flow":
        ok = lazcorr.post_lie_to_brace(P, check=True) is not None  # a failed check raises
    elif kind == "log":
        ok = formats.write_text(lazcorr.brace_to_post_lie(B, check=True).post_lie) == formats.write_text(P)
    elif kind == "transfer":
        ok = lazcorr.transfer_report(P, flow, include_subgroups=True).ok
    elif kind == "root-diff":
        log = lazcorr.brace_to_post_lie(B, check=True)
        ok = np.array_equal(lazcorr.lambda_derivative(B, log), log.tri_table)
    else:
        G = liering.laz(L)
        T = liering.laz_inv(G)
        ok = liering.laz_of_table(T) == G
    return {"wall_s": time.perf_counter() - start, "ok": bool(ok)}


def _post_lie_file(p: int, e: int, path: Path, triangle: str) -> None:
    """Write a CLI step's post-Lie ring to `path`, in the measuring
    process, whose own memory the child's peak does not include."""
    from lazbrace import formats

    path.write_text(formats.write_text(_post_lie(p, e, triangle)))


def _brace(p: int, e: int, triangle: str = "zero"):
    """The ring's brace, computed with check=False in the measuring process."""
    from lazbrace import lazcorr

    return lazcorr.post_lie_to_brace(_post_lie(p, e, triangle), check=False).brace


def _brace_tables(p: int, e: int, tables: Path, triangle: str) -> None:
    """Save the ring's brace tables for a log or root-diff step to `tables` (.npz)."""
    import numpy as np

    B = _brace(p, e, triangle)
    np.savez(tables, dot=B.dot.table, circ=B.circ.table, identity=B.dot.identity)


def _brace_file(p: int, e: int, path: Path, triangle: str) -> None:
    """Write the ring's brace file for a check step to `path`, as
    `lazbrace convert -o` writes it; the brace is freed on return, before
    the measured process starts."""
    from lazbrace import formats

    with path.open("w", encoding="ascii") as fh:
        fh.writelines(formats.text_blocks(_brace(p, e, triangle)))


def _measure(root: Path, step: str, limit_kb: int) -> dict:
    """Run one step as this process's only child, under ulimit -v."""
    kind, triangle, p, e = _parse_step(step)
    with tempfile.TemporaryDirectory() as tmp:
        plie, out, tables = Path(tmp) / "ring.plie", Path(tmp) / "brace.skb", Path(tmp) / "brace.npz"
        if kind in ("convert", "roundtrip"):
            _post_lie_file(p, e, plie, triangle)
        elif kind in ("log", "root-diff"):
            _brace_tables(p, e, tables, triangle)
        elif kind == "check":
            _brace_file(p, e, out, triangle)
        if kind == "convert":
            cmd = [sys.executable, "-m", "lazbrace", "convert", str(plie), "--to", "brace", "-o", str(out)]
        elif kind == "roundtrip":
            cmd = [sys.executable, "-m", "lazbrace", "roundtrip", str(plie)]
        elif kind == "check":
            cmd = [sys.executable, "-m", "lazbrace", "check", str(out)]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--root", str(root), "--run", step,
                   "--tables", str(tables)]
        start = time.perf_counter()
        proc = subprocess.run(["sh", "-c", f"ulimit -v {limit_kb} && exec {shlex.join(cmd)}"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
        wall = time.perf_counter() - start
        out_mb = out.stat().st_size / 2 ** 20 if kind in ("convert", "check") and out.exists() else None
    res = {"step": step, "n": p ** e, "exit": proc.returncode, "proc_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    errors = proc.stderr.strip().splitlines()
    if kind in ("convert", "check"):
        res.update(wall_s=wall, ok=proc.returncode == 0, out_mb=out_mb, stderr_lines=len(errors))
    elif kind == "roundtrip":
        res.update(wall_s=wall, ok=proc.returncode == 0 and proc.stdout.strip() == "roundtrip: exact",
                   stderr_lines=len(errors))
    elif proc.returncode == 0:
        res.update(json.loads(proc.stdout.splitlines()[-1]))
    if proc.returncode:
        res["error"] = (errors or ["?"])[-1]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("steps", nargs="*", default=list(STEPS),
                    help="p^e, convert:p^e, roundtrip:p^e, check:p^e, flow:p^e, log:p^e, transfer:p^e or"
                         " root-diff:p^e steps, the CLI, flow, log and transfer steps also as kind:neg:p^e or"
                         " kind:fil:p^e (default: %(default)s)")
    ap.add_argument("--limit-kb", type=int, default=6_000_000, help="ulimit -v of each step, in KiB")
    ap.add_argument("--root", type=Path, default=ROOT, help="the checkout whose src/ is measured")
    ap.add_argument("--run", help=argparse.SUPPRESS)  # one step, in the measured process
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # one step, as the measuring process
    ap.add_argument("--tables", type=Path, help=argparse.SUPPRESS)  # a log or root-diff step's brace tables
    args = ap.parse_args(argv)
    if args.run or args.measure:
        _use_checkout(args.root.resolve())
    if args.run:
        print(json.dumps(_run(args.run, args.tables)))
        return 0
    if args.measure:
        print(json.dumps(_measure(args.root.resolve(), args.measure, args.limit_kb)))
        return 0
    print("| step | n | time | peak RSS | output | exit |")
    print("|---|---|---|---|---|---|")
    for step in args.steps:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--root", str(args.root),
                               "--limit-kb", str(args.limit_kb), "--measure", step],
                              capture_output=True, text=True, check=True)
        r = json.loads(proc.stdout.splitlines()[-1])
        if r["exit"]:
            wall = f"{r['error']} ({r.get('stderr_lines', '?')} stderr lines)"
        else:
            wall = f"{r['wall_s']:.2f} s" + ("" if r["ok"] else " (MISMATCH)")
        out = f"{r['out_mb']:.1f} MB" if r.get("out_mb") is not None else "-"
        print(f"| {step} | {r['n']} | {wall} | {r['peak_rss_mb']:.1f} MB | {out} | {r['exit']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
