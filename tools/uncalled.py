"""List the functions, or the lines, of src/lazbrace that a pytest run never runs.

    PYTHONPATH=src python3 tools/uncalled.py [--lines] [pytest arguments ...]

for example `PYTHONPATH=src python3 tools/uncalled.py -q tests
lazbench/tests/selftest.py`.  The arguments go to pytest.main as they
are, and the run takes its exit status.  Every call is recorded through
sys.setprofile and threading.setprofile while pytest runs; afterwards each
function, method or nested def of src/lazbrace that no recorded call
entered is printed as `file:line  name  (k lines)`, with k counted from
its first decorator to its last line, and a total.

With --lines, every line is recorded instead, through sys.settrace and
threading.settrace (which makes the run several times slower), and each
executable line of src/lazbrace that never ran is printed as
`file:line  source`, and a total.  The executable lines are those of the
line tables of the code objects compiled from each file, nested ones
included; a def line counts as run once its function is entered.

The trace sees only this process: a call made in a subprocess, such as a
test that runs `python -m lazbrace`, is not recorded, so a function that
only such a process calls is listed as uncalled, and its lines as never
run.  Lambdas and comprehensions are not listed as functions.
"""

import ast
import dis
import sys
import threading
import types
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


def code_lines(path: Path) -> set[int]:
    """The lines of the line tables of the file's code objects."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return out


def unrun_lines(argv) -> int:
    package = (SRC / "lazbrace").resolve()
    ours, seen = {}, set()

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == package
        if not ours[name]:
            return None
        seen.add((name, frame.f_lineno))  # the call event counts the def line
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {(Path(name).resolve(), line) for name, line in seen}
    total = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(code_lines(path)):
            if (path, line) not in seen:
                total += 1
                print(f"{path.relative_to(SRC.parent)}:{line}  {text[line - 1].strip()}")
    print(f"never run: {total} lines")
    return int(status)


def main(argv) -> int:
    if "--lines" in argv:
        return unrun_lines([a for a in argv if a != "--lines"])
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
