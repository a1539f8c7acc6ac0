"""Command-line interface: check, convert, bch-words, enumerate, root-diff,
roundtrip.

Exit codes: 0 ok, 1 verification failure, 2 parse error or unusable
argument (such as an unwritable output path), 3 capability refused
(non-Lazard input, a size cap, or memory run out).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import formats, freelie
from .common import CapabilityError, CapExceededError, FailedTheoremError, NotLazardError, ParseError
from .liering import (
    FinGroup,
    _check_shape_cap,
    canonical_group_filtration,
    is_lazard,
    laz_inv,
    lower_central_series,
    table_to_sc,
    verify_group_table,
    verify_lie,
)
from .modarith import ModArithError, PShape
from .postlie import (
    _check_prelie_space,
    enumerate_prelie_ops,
    enumerate_prelie_ops_aff,
    l_series,
    substructures,
    verify_post_lie,
)
from .skewbrace import (
    SkewBrace,
    _check_soft_cap,
    enumerate_braces,
    enumerate_braces_via_chains,
    isomorphism_classes,
    l_series_brace,
    substructures_brace,
    verify_skew_brace,
)
from .lazcorr import brace_to_post_lie, lambda_derivative, post_lie_to_brace

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3


def _fmt_set(s) -> str:
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


def _write_output(blocks, path: str | None) -> int:
    """Write the text pieces `blocks` to `path`, one at a time, or their join
    to stdout when there is none.  An unwritable path is an unusable
    argument (exit 2); a file left part-written by any error is removed."""
    if not path:
        sys.stdout.write("".join(blocks))
        return EXIT_OK
    try:
        with open(path, "w", encoding="ascii") as fh:
            try:
                fh.writelines(blocks)
            except BaseException:
                if os.path.isfile(path):  # not a device such as /dev/null
                    os.remove(path)
                raise
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _report_lie(L) -> list[str]:
    ser = lower_central_series(L)
    cls = ser.nilpotency_class
    lazard = cls is not None and cls < L.shape.p
    head = f"Lie ring, class {cls if cls is not None else 'infinite (not nilpotent)'}"
    head += f", {'Lazard' if lazard else 'not Lazard'} (p={L.shape.p})"
    return [head, f"shape: {L.shape}", "verify: pass",
            "series sizes: " + " ".join(str(len(t)) for t in ser.terms)]


def _report_postlie(P) -> list[str]:
    cls = l_series(P).nilpotency_class
    lazard = cls is not None and cls < P.shape.p
    fix, soc, ann = substructures(P)
    return [f"post-Lie ring, L-class {cls if cls is not None else 'infinite'}"
            f", {'Lazard' if lazard else 'not Lazard'} (p={P.shape.p})",
            f"shape: {P.shape}", "verify: pass",
            f"fix: {_fmt_set(fix)}", f"soc: {_fmt_set(soc)}", f"ann: {_fmt_set(ann)}"]


def _report_group(G) -> list[str]:
    cls = canonical_group_filtration(G).nilpotency_class
    return [f"group of order {G.order}, class {cls if cls is not None else 'infinite'}", "verify: pass"]


def _report_brace(B) -> list[str]:
    cls = l_series_brace(B).nilpotency_class
    kind = "brace" if B.is_brace else "skew brace"
    lazard = cls is not None and cls < B.p
    fix, soc, ann = substructures_brace(B)
    return [f"skew brace ({kind}), L-class {cls if cls is not None else 'infinite'}"
            f", {'Lazard' if lazard else 'not Lazard'} (p={B.p})",
            "verify: pass",
            f"fix: {_fmt_set(fix)}", f"soc: {_fmt_set(soc)}", f"ann: {_fmt_set(ann)}"]


# kind -> (verifier, report of a verified value)
_CHECKS = {
    "lie": (verify_lie, _report_lie),
    "postlie": (verify_post_lie, _report_postlie),
    "group": (verify_group_table, _report_group),
    "skewbrace": (verify_skew_brace, _report_brace),
}


def cmd_check(args) -> int:
    kind, value = formats.parse_file(args.path)
    verify, report = _CHECKS[kind]
    rep = verify(value)
    if not rep.ok:
        print("\n".join(["verify: FAIL"] + ["  " + f for f in rep.failures]))
        return EXIT_VERIFY
    print("\n".join(report(value)))
    return EXIT_OK


def cmd_convert(args) -> int:
    kind, value = formats.parse_file(args.path)
    if args.to == "brace":
        if kind != "postlie":
            raise ParseError(f"convert --to brace needs a postlie file, got {kind}")
        flow = post_lie_to_brace(value)
        blocks = formats.text_blocks(flow.brace)
    else:
        if kind != "skewbrace":
            raise ParseError(f"convert --to postlie needs a skewbrace file, got {kind}")
        log = brace_to_post_lie(value)
        blocks = formats.text_blocks(log.post_lie)
    return _write_output(blocks, args.output)


def cmd_roundtrip(args) -> int:
    kind, value = formats.parse_file(args.path)
    if kind == "postlie":
        flow = post_lie_to_brace(value)
        back = brace_to_post_lie(flow.brace)
        same = formats.write_text(back.post_lie) == formats.write_text(value)
    elif kind == "skewbrace":
        log = brace_to_post_lie(value)
        flow = post_lie_to_brace(log.post_lie)
        same = all(log.basis.relabels_to(mine.table, theirs.table)
                   for mine, theirs in ((flow.brace.dot, value.dot), (flow.brace.circ, value.circ)))
    else:
        raise ParseError(f"roundtrip needs a postlie or skewbrace file, got {kind}")
    print("roundtrip: " + ("exact" if same else "MISMATCH"))
    return EXIT_OK if same else EXIT_VERIFY


def cmd_bch_words(args) -> int:
    if args.class_bound > freelie.MAX_WORD_CLASS:
        raise CapExceededError(f"class bound capped at {freelie.MAX_WORD_CLASS}")
    text = freelie.dump_tables(args.class_bound)
    if args.recheck:
        c, bch, p_word, q_word = freelie.load_tables(text)
        basis = freelie.get_basis(c)
        ok = (
            freelie.evaluate_group_word(p_word, c) == basis.gen(0) + basis.gen(1)
            and freelie.evaluate_group_word(q_word, c) == basis.gen(0).bracket(basis.gen(1))
        )
        print(f"# self-inversion at class {c}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
        if not ok:
            return EXIT_VERIFY
    return _write_output([text], args.output)


def _parse_shape(spec: str) -> PShape:
    """The shape of a 'p:e1,e2,...' spec; one above the soft cap is refused
    before PShape tests p for primality, whatever --force says."""
    try:
        p_s, exps_s = spec.split(":")
        p, exps = int(p_s), tuple(int(e) for e in exps_s.split(","))
        _check_shape_cap(p, exps)
        return PShape(p, exps)
    except ValueError as exc:
        raise ParseError(f"bad shape spec {spec!r}; use 'p:e1,e2,...'") from exc


def cmd_enumerate(args) -> int:
    """Every size cap is compared before any enumeration starts; --force
    lifts --max-order only."""
    shape = _parse_shape(args.shape)
    p = shape.p
    k = sum(shape.exps)
    if k >= p:
        raise NotLazardError(
            f"order p^{k} with k >= p = {p} refused: the correspondence needs k < p"
        )
    if shape.order > args.max_order and not args.force:
        raise CapExceededError(
            f"order {shape.order} above --max-order {args.max_order} (use --force)"
        )
    _check_soft_cap(shape.order)
    _check_prelie_space(shape)
    A = FinGroup(shape.carrier.add, 0)
    braces = enumerate_braces(A)
    braces_chain = enumerate_braces_via_chains(A)
    prelie = enumerate_prelie_ops(shape)
    prelie_aff = enumerate_prelie_ops_aff(shape)
    print(f"shape {shape}: braces by lambda search: {len(braces)}")
    print(f"shape {shape}: braces by Hol^+ chain union: {len(braces_chain)}")
    print(f"shape {shape}: left-nilpotent pre-Lie by triangle search: {len(prelie)}")
    print(f"shape {shape}: left-nilpotent pre-Lie by graph closure: {len(prelie_aff)}")
    ok = len(braces) == len(braces_chain) and len(prelie) == len(prelie_aff)
    ok = ok and len(braces) == len(prelie)
    brace_keys = {B.circ.table.tobytes() for B in braces}
    matched = 0
    for P in prelie:
        flow = post_lie_to_brace(P, check=False)
        if flow.brace.circ.table.tobytes() in brace_keys:
            matched += 1
    print(f"flow images matched into the brace catalog: {matched}/{len(prelie)}")
    ok = ok and matched == len(prelie)
    if args.iso_dedup:
        classes = isomorphism_classes(braces)
        print(f"brace isomorphism classes: {len(classes)}")
    print("pairing: " + ("bijective" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_root_diff(args) -> int:
    kind, value = formats.parse_file(args.path)
    if kind != "skewbrace":
        raise ParseError(f"root-diff needs a skewbrace file, got {kind}")
    log = brace_to_post_lie(value)
    lambda_derivative(value, log)
    print("root-of-unity triangle matches the logged triangle: exact")
    return _write_output(formats.text_blocks(log.post_lie), args.output)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so main reuses it."""
    ap = argparse.ArgumentParser(
        prog="lazbrace",
        description="Exact Lazard correspondence between post-Lie rings and skew braces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a structure file and report invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="apply the correspondence in either direction")
    p.add_argument("path")
    p.add_argument("--to", choices=("brace", "postlie"), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("roundtrip", help="convert there and back, compare exactly")
    p.add_argument("path")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bch-words", help="export the BCH and inverse-word tables")
    p.add_argument("class_bound", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--recheck", action="store_true", help="re-verify self-inversion")
    p.set_defaults(func=cmd_bch_words)

    p = sub.add_parser("enumerate", help="enumerate braces and pre-Lie rings on a shape")
    p.add_argument("shape", help="shape spec 'p:e1,e2,...'")
    p.add_argument("--max-order", type=int, default=9)
    p.add_argument("--force", action="store_true",
                   help="lift --max-order only; the brace order cap (125) and the pre-Lie search-space cap still hold")
    p.add_argument("--iso-dedup", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("root-diff", help="recover the triangle from lambda via roots of unity")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_root_diff)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except FailedTheoremError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ModArithError as exc:  # the input breaks a structure axiom
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except MemoryError:
        print(f"refused: out of memory in {args.command}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
