"""Golden CLI runs: stdout, stderr and exit code of `check` and `roundtrip`
on every file of data/, of `root-diff data/radical_25.skb`, of
`bch-words c --recheck` for every class c and of
`enumerate 3:1,1 --iso-dedup`, compared with the copies recorded in
tests/golden/cli.json.

To re-record (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from lazbrace.cli import main
from lazbrace.freelie import MAX_WORD_CLASS

DATA = Path(__file__).parent.parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "cli.json"
_FILE_COMMANDS = ("check", "roundtrip", "root-diff")


def _runs() -> list[tuple[str, ...]]:
    files = sorted(p.name for p in DATA.iterdir())
    return ([("check", f) for f in files] + [("roundtrip", f) for f in files]
            + [("root-diff", "radical_25.skb")]
            + [("bch-words", str(c), "--recheck") for c in range(1, MAX_WORD_CLASS + 1)]
            + [("enumerate", "3:1,1", "--iso-dedup")])


def _run(command: str, *args: str) -> dict:
    if command in _FILE_COMMANDS:
        args = (str(DATA / args[0]),) + args[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *args])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _key(run: tuple[str, ...]) -> str:
    return " ".join(run)


@pytest.mark.parametrize("run", _runs(), ids=_key)
def test_cli_output_matches_the_golden_copy(run):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _run(*run) == golden[_key(run)]


def test_every_golden_copy_has_a_run():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == {_key(r) for r in _runs()}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_key(r): _run(*r) for r in _runs()}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)
