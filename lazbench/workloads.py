"""The three workloads: set-up, one timed operation, and its output check.

Each workload is a closed loop with one caller.  `fresh(item)` rebuilds
the operation's input objects outside the timed region, `op(args)` is the
timed call into the library, and `check(item, out)` validates the output
exactly, again outside the timed region.  Library calls go through module
attributes (`liering.laz`, not a local binding) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from lazbrace import cli, formats, lazcorr, liering
from lazbrace.lazcorr import FlowResult
from lazbrace.liering import FinGroup
from lazbrace.skewbrace import SkewBrace

import generate

ROUNDTRIP_OK = "roundtrip: exact"


@dataclass
class Item:
    """One instance plus whatever set-up prepared for it."""

    inst: generate.Instance
    path: str | None = None  # correspondence: the structure file
    flow: tuple | None = None  # transfer: stored arrays of the flow
    subgroups: int | None = None  # transfer: independent subgroup count


class Lazard:
    """laz -> laz_inv -> laz_of_table on one Lie ring."""

    name = "lazard"

    def setup(self, instances, workdir):
        return [Item(inst) for inst in instances]

    def fresh(self, item):
        return item.inst.build()

    def op(self, L):
        G = liering.laz(L)
        T = liering.laz_inv(G)
        return G, T, liering.laz_of_table(T)

    def check(self, item, out) -> bool:
        G, T, G2 = out
        return T.zero == 0 and G2 == G and _tables_match(item.inst, T)


def _tables_match(inst: generate.Instance, T) -> bool:
    """T.add and T.bracket against the ring's own addition and bracket,
    computed here by index arithmetic on little-endian coordinates."""
    p, exps, sc = inst.p, inst.exps, inst.arrays[0]
    mods = np.array([p ** e for e in exps], dtype=np.int64)
    strides = np.concatenate([[1], np.cumprod(mods)[:-1]]).astype(np.int64)
    n = int(np.prod(mods))
    coords = (np.arange(n, dtype=np.int64)[:, None] // strides) % mods
    if T.add.shape != (n, n) or T.bracket.shape != (n, n):
        return False
    rows = max(1, (1 << 18) // n)
    for start in range(0, n, rows):
        a = coords[start:start + rows]
        add = ((a[:, None, :] + coords[None, :, :]) % mods) @ strides
        left = (a @ sc.reshape(len(exps), -1)).reshape(len(a), len(exps), len(exps))
        br = ((coords @ left) % mods) @ strides
        if not (np.array_equal(T.add[start:start + rows], add)
                and np.array_equal(T.bracket[start:start + rows], br)):
            return False
    return True


class Correspondence:
    """`lazbrace roundtrip <file>` in-process, both directions."""

    name = "correspondence"

    def setup(self, instances, workdir):
        items = []
        for inst in instances:
            suffix = ".skb" if inst.kind == "skewbrace" else ".plie"
            path = os.path.join(workdir, inst.name + suffix)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(formats.write_text(inst.build()))
            items.append(Item(inst, path=path))
        return items

    def fresh(self, item):
        return item.path

    def op(self, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["roundtrip", path])
        return code, buf.getvalue()

    def check(self, item, out) -> bool:
        code, text = out
        return code == 0 and text.strip() == ROUNDTRIP_OK


class Transfer:
    """transfer_report with the full subgroup sweep, flows built in set-up."""

    name = "transfer"

    def setup(self, instances, workdir):
        items = []
        for inst in instances:
            flow = lazcorr.post_lie_to_brace(inst.build())
            stored = (flow.brace.dot.table, flow.brace.circ.table, flow.w, flow.omega, flow.l_class)
            items.append(Item(inst, flow=stored,
                              subgroups=generate.subgroup_total(inst.p, inst.exps)))
        return items

    def fresh(self, item):
        P = item.inst.build()
        dot, circ, w, omega, k = item.flow
        brace = SkewBrace(FinGroup(dot, 0), FinGroup(circ, 0))
        return P, FlowResult(P, brace, w, omega, k)

    def op(self, args):
        P, flow = args
        return lazcorr.transfer_report(P, flow, include_subgroups=True)

    def check(self, item, rep) -> bool:
        return rep.ok and rep.subgroups_checked == item.subgroups


WORKLOADS = {w.name: w for w in (Lazard(), Correspondence(), Transfer())}
