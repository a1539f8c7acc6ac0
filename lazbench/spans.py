"""Traced run: spans and counters around lazbrace's public functions.

Everything here works from outside the package.  `installed(recorder)`
replaces each listed function at every lazbrace module that binds it
(for example both `lazbrace.lazcorr.laz` and `lazbrace.liering.laz`),
and each listed method on its class, then puts the originals back.

A span records its name, start, end and parent.  A span's self time is
its duration minus the time its child spans cover.  Hot functions and
methods are counted only, with no span, to keep the tracing overhead
small.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute): a span with calls and self time.
SPANS = [
    ("modarith", "endo_exp"),
    ("modarith", "endo_log"),
    ("modarith", "abelian_decompose"),
    ("freelie", "inverse_words"),
    ("freelie", "bch_basis_terms"),
    ("liering", "laz"),
    ("liering", "laz_inv"),
    ("liering", "laz_of_table"),
    ("liering", "is_lazard"),
    ("liering", "lower_central_series"),
    ("liering", "canonical_group_filtration"),
    ("liering", "verify_group_table"),
    ("liering", "table_to_sc"),
    ("liering", "all_add_subgroups"),
    ("postlie", "verify_post_lie"),
    ("postlie", "l_series"),
    ("postlie", "classify_subset"),
    ("postlie", "substructures"),
    ("postlie", "right_series"),
    ("skewbrace", "verify_skew_brace"),
    ("skewbrace", "l_series_brace"),
    ("skewbrace", "classify_subset_brace"),
    ("skewbrace", "substructures_brace"),
    ("skewbrace", "right_series_brace"),
    ("lazcorr", "post_lie_to_brace"),
    ("lazcorr", "w_map"),
    ("lazcorr", "brace_to_post_lie"),
    ("lazcorr", "omega_map"),
    ("lazcorr", "transfer_report"),
    ("formats", "parse_file"),
    ("formats", "write_text"),
    ("cli", "main"),
]

# (module, attribute): calls only.  "Class.method" names a method.
COUNTED = [
    ("modarith", "PShape.reduce"),
    ("modarith", "PShape.index_batch"),
    ("modarith", "Endo.__init__"),
    ("liering", "group_closure"),
    ("liering", "add_closure"),
    ("postlie", "circ_ring"),
    ("lazcorr", "u_eval"),
]

_S, _C, _B, _R = "s", "count", "bytes", "ratio"

# The per-layer metrics, in report order, with their units.
PER_LAYER = [
    ("modarith.endo_exp.calls", _C), ("modarith.endo_exp.self_s", _S),
    ("modarith.endo_log.calls", _C), ("modarith.endo_log.self_s", _S),
    ("modarith.abelian_decompose.self_s", _S), ("modarith.Endo.init.calls", _C),
    ("modarith.PShape.reduce.calls", _C), ("modarith.PShape.index_batch.calls", _C),
    ("freelie.inverse_words.calls", _C), ("freelie.inverse_words.self_s", _S),
    ("freelie.bch_basis_terms.calls", _C), ("freelie.bch_basis_terms.self_s", _S),
    ("liering.laz.calls", _C), ("liering.laz.self_s", _S), ("liering.laz.pairs", _C),
    ("liering.laz_inv.calls", _C), ("liering.laz_inv.self_s", _S), ("liering.laz_inv.pairs", _C),
    ("liering.laz_of_table.calls", _C), ("liering.laz_of_table.self_s", _S),
    ("liering.is_lazard.self_s", _S), ("liering.lower_central_series.self_s", _S),
    ("liering.canonical_group_filtration.self_s", _S), ("liering.group_closure.calls", _C),
    ("liering.table_bytes", _B),
    ("liering.verify_group_table.self_s", _S), ("liering.table_to_sc.self_s", _S),
    ("liering.all_add_subgroups.calls", _C), ("liering.all_add_subgroups.self_s", _S),
    ("liering.all_add_subgroups.subgroups", _C), ("liering.add_closure.calls", _C),
    ("liering.all_add_subgroups.yield", _R),
    ("postlie.verify_post_lie.self_s", _S), ("postlie.l_series.self_s", _S),
    ("postlie.circ_ring.calls", _C),
    ("postlie.classify_subset.calls", _C), ("postlie.classify_subset.self_s", _S),
    ("postlie.substructures.self_s", _S), ("postlie.right_series.self_s", _S),
    ("skewbrace.verify_skew_brace.calls", _C), ("skewbrace.verify_skew_brace.self_s", _S),
    ("skewbrace.l_series_brace.self_s", _S),
    ("skewbrace.classify_subset_brace.calls", _C), ("skewbrace.classify_subset_brace.self_s", _S),
    ("skewbrace.substructures_brace.self_s", _S), ("skewbrace.right_series_brace.self_s", _S),
    ("lazcorr.post_lie_to_brace.calls", _C), ("lazcorr.post_lie_to_brace.self_s", _S),
    ("lazcorr.w_map.self_s", _S),
    ("lazcorr.brace_to_post_lie.calls", _C), ("lazcorr.brace_to_post_lie.self_s", _S),
    ("lazcorr.omega_map.self_s", _S), ("lazcorr.u_eval.calls", _C),
    ("lazcorr.transfer_report.self_s", _S),
    ("formats.parse_file.self_s", _S), ("formats.parse_file.bytes", _B),
    ("formats.write_text.self_s", _S),
    ("cli.main.calls", _C), ("cli.main.self_s", _S),
    ("trace.overhead_ratio", _R),
]

# Mechanisms a workload's timed ops bypass: these counts must read 0.
PREDICTED_ZEROS = {
    "lazard": ["liering.all_add_subgroups.calls", "skewbrace.verify_skew_brace.calls",
               "modarith.endo_exp.calls", "modarith.endo_log.calls"],
    "correspondence": ["liering.all_add_subgroups.calls", "liering.laz_of_table.calls"],
    "transfer": ["skewbrace.verify_skew_brace.calls", "liering.laz_of_table.calls",
                 "modarith.endo_exp.calls", "modarith.endo_log.calls"],
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, keep_spans: bool = False):
        self.calls: Counter = Counter()
        self.values: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.stack: list = []  # [name, span id, start, time covered by children]
        self.spans: list | None = [] if keep_spans else None
        self._next_id = 0

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self.active[name] += 1
        self._next_id += 1
        self.stack.append([name, self._next_id, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, sid, start, child = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.active[name] -= 1
        parent = 0
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][1]
        if self.spans is not None:
            self.spans.append((sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this pass; the overhead ratio, which
        needs an untraced pass, is left at 0 for the caller to fill in."""
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[stem]
            elif field == "self_s":
                out[name] = self.self_s[stem]
            else:
                out[name] = self.values[name]
        closures = self.values["liering.all_add_subgroups.add_closure"]
        subgroups = self.values["liering.all_add_subgroups.subgroups"]
        out["liering.all_add_subgroups.yield"] = subgroups / closures if closures else 0.0
        return out

    def tree(self) -> dict[tuple, list]:
        """(path of span names) -> [calls, total s, self s], from the kept spans."""
        by_id = {sid: (parent, name, start, end) for sid, parent, name, start, end in self.spans or ()}
        child_time: Counter = Counter()
        for parent, _name, start, end in by_id.values():
            child_time[parent] += end - start
        agg: dict[tuple, list] = {}
        for sid, (parent, name, start, end) in by_id.items():
            path = [name]
            while parent:
                parent, pname = by_id[parent][0], by_id[parent][1]
                path.append(pname)
            row = agg.setdefault(tuple(reversed(path)), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[sid]
        return agg


def _after_laz(rec, args, out):
    rec.values["liering.laz.pairs"] += args[0].order ** 2
    rec.values["liering.table_bytes"] += out.table.nbytes


def _after_laz_inv(rec, args, out):
    rec.values["liering.laz_inv.pairs"] += args[0].order ** 2
    rec.values["liering.table_bytes"] += out.add.nbytes + out.bracket.nbytes


def _after_laz_of_table(rec, args, out):
    rec.values["liering.table_bytes"] += out.table.nbytes


def _after_all_add_subgroups(rec, args, out):
    rec.values["liering.all_add_subgroups.subgroups"] += len(out)


def _after_parse_file(rec, args, out):
    rec.values["formats.parse_file.bytes"] += os.path.getsize(args[0])


def _on_add_closure(rec):
    if rec.active["liering.all_add_subgroups"]:
        rec.values["liering.all_add_subgroups.add_closure"] += 1


AFTER = {
    "liering.laz": _after_laz,
    "liering.laz_inv": _after_laz_inv,
    "liering.laz_of_table": _after_laz_of_table,
    "liering.all_add_subgroups": _after_all_add_subgroups,
    "formats.parse_file": _after_parse_file,
}
ON_COUNT = {"liering.add_closure": _on_add_closure}


def _span_wrapper(rec: Recorder, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    hook = ON_COUNT.get(name)
    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if hook is not None:
            hook(rec)
        return fn(*args, **kwargs)

    return wrapper


def _metric_stem(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every listed function and method while the block runs."""
    undo: list = []
    try:
        for kind, targets in ((_span_wrapper, SPANS), (_count_wrapper, COUNTED)):
            for module, attr in targets:
                mod = importlib.import_module(f"lazbrace.{module}")
                name = _metric_stem(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, kind(rec, name, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = kind(rec, name, orig)
                for mname, m in list(sys.modules.items()):
                    if mname != "lazbrace" and not mname.startswith("lazbrace."):
                        continue
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            undo.append((m, key, orig))
                            setattr(m, key, wrapper)
        yield rec
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
