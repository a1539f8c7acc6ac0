"""lazbench: the lazbrace benchmark.

    python3 lazbench/run.py --workload lazard --seed 1 --seconds 30 --trace 0
    python3 lazbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It benchmarks the sources under src/,
one single-threaded process per workload, as a closed loop with one
caller.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See lazbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".lazbench_out"
WORKLOAD_NAMES = ("lazard", "correspondence", "transfer")
# An untraced run sets up at least SETUP_REPS times and for at least
# SETUP_MIN_S, but at most SETUP_MAX_REPS times; setup_s takes their median.
# A cheap set-up (lazard: about 0.1 s) is thus repeated more often, so that
# its median rests on more samples.
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.5, 15
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples above it
CHILD_TIMEOUT_S = 900
# One untraced pass over each instance list on the reference machine (2 cores).
NOMINAL_PASS_S = {"lazard": 9.0, "correspondence": 7.0, "transfer": 9.0}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(prog="lazbench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small instances only (for the self-test)")
    return ap.parse_args(argv)


def import_library():
    """Import lazbrace from this checkout's src/, never from elsewhere."""
    if not (SRC / "lazbrace" / "__init__.py").is_file():
        raise SystemExit(f"lazbench: no lazbrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lazbrace

    if Path(lazbrace.__file__).resolve().parent != SRC / "lazbrace":
        raise SystemExit(f"lazbench: lazbrace was imported from {lazbrace.__file__}")
    return lazbrace


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# One workload in this process.


class Tally:
    """Op samples and failure accounting across the passes of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.by_instance: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []


def run_pass(wl, items, tally: Tally, rec=None) -> float:
    """One pass over the instance list; returns the summed op time.

    Rebuilding the inputs and checking the outputs stay outside the timed
    region.  A raised exception or a failed check is recorded against the
    op and the pass goes on.
    """
    wall = 0.0
    for item in items:
        # The library keeps arrays alive in reference cycles (recursive
        # closures over a memo), so when the collector runs would decide
        # the peak memory.  Each op starts from a collected heap instead.
        gc.collect()
        args = wl.fresh(item)
        error = None
        timed = rec.span("op") if rec is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with timed:
                out = wl.op(args)
        except Exception as exc:  # recorded against the op
            error = exc
        dt = time.perf_counter() - t0
        tally.attempted += 1
        tally.samples.append(dt)
        tally.by_instance.setdefault(item.inst.name, []).append(dt)
        wall += dt
        if error is None:
            try:
                if not wl.check(item, out):
                    error = "output check failed"
            except Exception as exc:  # a check that cannot run is a failure
                error = exc
        if error is not None:
            tally.failures.append((item.inst.name, repr(error)))
    return wall


def planned_passes(workload: str, seconds: float, trace: int) -> int:
    """Passes that fill `seconds` at the nominal pass time of the reference
    machine.  The count does not follow the host's speed during the run,
    so every run of a workload takes the same number of op samples, and
    op_tail_s and op_p50_s keep their rank among the instances."""
    return max(2 if trace else 1, round(seconds / NOMINAL_PASS_S[workload]))


def setup_once(wl, seed: int, tiny: bool, workdir: str):
    """Cold set-up: empty the freelie caches, warm them, generate, verify
    and prepare the inputs.  Returns (items, input digest)."""
    from lazbrace import freelie
    import generate

    for obj in vars(freelie).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    for c in range(1, freelie.MAX_WORD_CLASS + 1):
        freelie.inverse_words(c)
        freelie.bch_basis_terms(c)
    instances = generate.INSTANCES[wl.name](seed, tiny)
    return wl.setup(instances, workdir), generate.digest(instances)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(args) -> int:
    lazbrace = import_library()
    import numpy

    import_s = time.perf_counter() - T_START
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        setup_times, digests = [], set()
        for _ in range(1 if args.trace else SETUP_MAX_REPS):
            t0 = time.perf_counter()
            items, dig = setup_once(wl, args.seed, args.tiny, workdir)
            setup_times.append(time.perf_counter() - t0)
            digests.add(dig)
            if len(setup_times) >= SETUP_REPS and sum(setup_times) >= SETUP_MIN_S:
                break
        if len(digests) != 1:
            raise RuntimeError("the same seed gave different inputs")
        setup_s = import_s + statistics.median(setup_times)

        tally = Tally()
        walls, traced_walls, traced = [], [], []
        for _ in range(planned_passes(wl.name, args.seconds, args.trace)):
            if args.trace and len(walls) > len(traced_walls):
                rec = spans.Recorder(keep_spans=not traced)
                with spans.installed(rec):
                    traced_walls.append(run_pass(wl, items, tally, rec))
                traced.append(rec)
            else:
                walls.append(run_pass(wl, items, tally))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "commit": commit_id(), "lazbrace": lazbrace.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "instances": len(items), "passes": len(walls), "traced_passes": len(traced_walls),
        "ops": tally.attempted, "setup_reps": len(setup_times),
        "setup_times_s": setup_times, "input_sha256": digests.pop(),
        "pass_walls_s": walls,
        "op_s_by_instance": {k: statistics.median(v) for k, v in tally.by_instance.items()},
    }
    for name, why in tally.failures[:5]:
        print(f"FAILED {name}: {why}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(traced, traced_walls, walls)
        units = dict(spans.PER_LAYER)
        zeros = [m for m in spans.PREDICTED_ZEROS[wl.name] if metrics[m] != 0]
        record["predicted_zeros"] = "hold" if not zeros else "violated: " + ", ".join(zeros)
        record["span_dump"] = str(dump_spans(traced[0], record).relative_to(ROOT))
        print_tree(traced[0])
    else:
        value, pct = tail(tally.samples)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(tally.samples),
            "op_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record.update(samples=len(tally.samples), tail_percentile=round(pct, 2))
    record["fail_ratio"] = failed / tally.attempted

    print(f"record: {json.dumps(record, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{wl.name:15s} {name:45s} {value:14.6g} {units[name]}")
    print(f"{wl.name:15s} {'fail_ratio':45s} {record['fail_ratio']:14.6g} ratio"
          f"  ({failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(traced, traced_walls, walls) -> dict[str, float]:
    """Counts of the first traced pass, self times as medians over traced
    passes, and the overhead against the untraced passes of the same run."""
    per_pass = [rec.metrics() for rec in traced]
    out = dict(per_pass[0])
    for name in out:
        if name.endswith("self_s"):
            out[name] = statistics.median(m[name] for m in per_pass)
    base = statistics.median(walls)
    out["trace.overhead_ratio"] = (statistics.median(traced_walls) - base) / base
    return out


def dump_spans(rec, record) -> Path:
    """Write the first traced pass's span list (times relative to its start)."""
    t0 = min((s[3] for s in rec.spans), default=0.0)
    path = OUT / f"spans-{record['workload']}-seed{record['seed']}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump({
            "record": record,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[sid, parent, name, round(a - t0, 7), round(b - t0, 7)]
                      for sid, parent, name, a, b in rec.spans],
        }, fh)
    return path


def print_tree(rec) -> None:
    print(f"{'span tree (first traced pass)':58s} {'calls':>8s} {'total s':>10s} {'self s':>10s}")
    for path, (calls, total, own) in sorted(rec.tree().items()):
        label = "  " * (len(path) - 1) + path[-1]
        print(f"{label:58s} {calls:8d} {total:10.4f} {own:10.4f}")


# ---------------------------------------------------------------------------
# Every workload, each in its own process.


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"lazbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results["lazard"]["metrics"])
    print(f"\n{'metric':45s} " + " ".join(f"{w:>15s}" for w in WORKLOAD_NAMES))
    for m in names:
        unit = results["lazard"]["metrics"][m]["unit"]
        row = " ".join(f"{results[w]['metrics'][m]['value']:15.6g}" for w in WORKLOAD_NAMES)
        print(f"{m + ' [' + unit + ']':45s} {row}")
    row = " ".join(f"{r['failed'] / r['attempted']:15.6g}" for r in results.values())
    print(f"{'fail_ratio [ratio]':45s} {row}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_library()  # fail early, before any workload process
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
