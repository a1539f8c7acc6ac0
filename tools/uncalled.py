"""List the functions of src/lazbrace that a pytest run never calls.

    PYTHONPATH=src python3 tools/uncalled.py [pytest arguments ...]

for example `PYTHONPATH=src python3 tools/uncalled.py -q tests
lazbench/tests/selftest.py`.  The arguments go to pytest.main as they
are, and the run takes its exit status.  Every call is recorded through
sys.setprofile and threading.setprofile while pytest runs; afterwards each
function, method or nested def of src/lazbrace that no recorded call
entered is printed as `file:line  name  (k lines)`, with k counted from
its first decorator to its last line, and a total.

The trace sees only this process: a call made in a subprocess, such as a
test that runs `python -m lazbrace`, is not recorded, so a function that
only such a process calls is listed as uncalled.  Lambdas and
comprehensions are not listed.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))


def defined(path: Path):
    """(first line, last line, qualified name) of each def in the file."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((first, child.end_lineno, prefix + name))
            visit(child, prefix + name + "." if name else prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return out


def main(argv) -> int:
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(argv)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in codes.values()}
    total = 0
    for path in sorted((SRC / "lazbrace").glob("*.py")):
        for first, last, name in defined(path):
            if (path.resolve(), first, name.rsplit(".", 1)[-1]) not in called:
                total += last - first + 1
                print(f"{path.relative_to(SRC.parent)}:{first}  {name}  ({last - first + 1} lines)")
    print(f"uncalled: {total} lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
