"""Self-test of the lazbrace benchmark, on a tiny instance subset.

    python3 -m pytest -q lazbench/tests/selftest.py

The file name keeps it out of the repository's default test collection;
name it on the command line as above.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lazbrace import lazcorr, liering  # noqa: E402
from lazbrace.lazcorr import TransferReport  # noqa: E402
from lazbrace.liering import LieRingTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    table = {tuple(line.split()[1:2] + line.split()[3:4]) for line in lines[:-1]
             if line.startswith(workload + " ")}
    assert {(name, unit) for name, unit in want.items()} <= table
    assert ("fail_ratio", "ratio") in table
    record = json.loads(next(line for line in lines if line.startswith("record: "))[8:])
    assert record["threads"] == {v: "1" for v in run.THREAD_VARS}
    if trace:
        assert record["predicted_zeros"] == "hold"


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_corrupted_output_is_counted_as_a_failure(monkeypatch):
    wl = workloads.WORKLOADS["lazard"]
    items = wl.setup(generate.lazard_instances(5, tiny=True), None)
    real_op = wl.op

    def corrupted(L):
        G, T, G2 = real_op(L)
        bad = T.bracket.copy()
        bad[1, 2] = (bad[1, 2] + 1) % T.order
        return G, LieRingTable(T.add, bad, T.zero), G2

    monkeypatch.setattr(wl, "op", corrupted)
    tally = run.Tally()
    run.run_pass(wl, items, tally)
    assert tally.attempted == len(items)
    assert [name for name, _ in tally.failures] == [item.inst.name for item in items]


def test_a_raising_op_is_recorded_and_the_pass_goes_on(monkeypatch):
    wl = workloads.WORKLOADS["lazard"]
    items = wl.setup(generate.lazard_instances(5, tiny=True), None)
    real_op = wl.op

    calls = []

    def flaky(L):
        calls.append(L)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real_op(L)

    monkeypatch.setattr(wl, "op", flaky)
    tally = run.Tally()
    run.run_pass(wl, items, tally)
    assert tally.attempted == len(items) == len(calls)
    assert [name for name, _ in tally.failures] == [items[1].inst.name]


def test_other_checks_reject_wrong_outputs():
    corr = workloads.WORKLOADS["correspondence"]
    item = workloads.Item(generate.correspondence_instances(5, tiny=True)[0])
    assert corr.check(item, (0, "roundtrip: exact\n"))
    assert not corr.check(item, (0, "roundtrip: MISMATCH\n"))
    assert not corr.check(item, (1, "roundtrip: exact\n"))
    tr = workloads.WORKLOADS["transfer"]
    item = workloads.Item(generate.transfer_instances(5, tiny=True)[0], subgroups=28)
    good = TransferReport(28, True, True, True, True, True)
    assert tr.check(item, good)
    assert not tr.check(item, TransferReport(27, True, True, True, True, True))
    assert not tr.check(item, TransferReport(28, False, True, True, True, True))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_bytes(workload):
    make = generate.INSTANCES[workload]
    first, again, other = make(7), make(7), make(8)
    assert generate.serialize(first) == generate.serialize(again)
    assert generate.serialize(first) != generate.serialize(other)
    # the seed never changes what is computed, only the constants
    shape = lambda insts: [(i.name, i.kind, i.p, i.exps) for i in insts]
    assert shape(first) == shape(other)


@pytest.mark.parametrize("p, exps, total", [
    (3, (1, 1, 1, 1), 212), (5, (1, 1, 1), 64), (3, (1, 1, 1), 28), (3, (2, 1), 10),
    (3, (2, 1, 1), 50), (3, (2, 2), 23), (5, (2, 1), 14), (3, (3,), 4),
])
def test_subgroup_total(p, exps, total):
    assert generate.subgroup_total(p, exps) == total


@pytest.mark.parametrize("p, exps", [(3, (2, 1)), (3, (1, 1, 1)), (3, (2, 2)), (2, (2, 1, 1))])
def test_subgroup_total_against_the_library_sweep(p, exps):
    from lazbrace.modarith import PShape

    assert generate.subgroup_total(p, exps) == len(liering.all_add_subgroups(PShape(p, exps)))


def test_tracing_wraps_every_binding_and_restores_it():
    orig = liering.laz
    rec = spans.Recorder()
    with spans.installed(rec):
        assert lazcorr.laz is liering.laz
        assert liering.laz is not orig
    assert liering.laz is orig and lazcorr.laz is orig
