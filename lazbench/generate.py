"""Seeded inputs for the three lazbench workloads.

The instance lists are fixed: the seed never changes a prime, a shape, an
order or a nilpotency class, so the cost of an operation does not depend
on it.  The seed only draws structure constants (graded support rule),
changes of basis (automorphisms of the additive group) and carrier
labels (a permutation of a brace carrier fixing 0).  Every instance is
verified with the library's own verifier and confirmed Lazard here, in
set-up, so the timed operations start from known-good inputs.

The builders below are written for the benchmark and import nothing from
the repository's tests.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from lazbrace import liering, postlie, skewbrace
from lazbrace.liering import FinGroup, LieRingSC
from lazbrace.modarith import PShape
from lazbrace.postlie import PostLieRing
from lazbrace.skewbrace import SkewBrace

MAX_DRAWS = 200  # a draw that never reaches its target class is a generator bug


@dataclass(frozen=True)
class Instance:
    """One input, stored as plain arrays so every op can rebuild it fresh.

    kind is "lie" (sc), "postlie" (sc, tri) or "skewbrace" (dot, circ).
    """

    name: str
    kind: str
    p: int
    exps: tuple[int, ...]
    arrays: tuple[np.ndarray, ...]

    @property
    def shape(self) -> PShape:
        return PShape(self.p, self.exps)

    def build(self):
        """A fresh library object (no cached properties carried over)."""
        if self.kind == "lie":
            return LieRingSC(self.shape, self.arrays[0])
        if self.kind == "postlie":
            return PostLieRing(LieRingSC(self.shape, self.arrays[0]), self.arrays[1])
        dot, circ = self.arrays
        return SkewBrace(FinGroup(dot, 0), FinGroup(circ, 0))


def _frozen(arr) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
    out.setflags(write=False)
    return out


def _rng(seed: int, name: str) -> random.Random:
    # one stream per instance, so an instance does not depend on list order
    return random.Random(f"lazbench:{seed}:{name}")


# ---------------------------------------------------------------------------
# Structure constants.


def graded_sc(rng: random.Random, p: int, exps, class_cap: int | None) -> np.ndarray:
    """[g_i, g_j] drawn inside the span of strictly later generators.

    The support rule makes the Jacobi identity hold identically for rank
    <= 4.  With class_cap = 2 the support shrinks to the last generator,
    which forces class <= 2.  Each coordinate is killed by p^min(e_i, e_j).
    """
    r = len(exps)
    sc = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(i + 1, r):
            if class_cap == 2:
                support = [r - 1] if j < r - 1 else []
            else:
                support = list(range(j + 1, r))
            kill = min(exps[i], exps[j])
            for k in support:
                gap = max(0, exps[k] - kill)
                sc[i, j, k] = p ** gap * rng.randrange(p ** (exps[k] - gap))
            sc[j, i] = -sc[i, j]
    return _reduce(p, exps, sc)


def _reduce(p: int, exps, arr) -> np.ndarray:
    return np.mod(np.asarray(arr, dtype=np.int64), np.array([p ** e for e in exps], dtype=np.int64))


def _inverse_mod_p(M: np.ndarray, p: int) -> np.ndarray | None:
    """Gauss-Jordan inverse over F_p, or None when M is singular."""
    r = M.shape[0]
    aug = np.concatenate([M % p, np.eye(r, dtype=np.int64)], axis=1)
    for col in range(r):
        piv = next((row for row in range(col, r) if aug[row, col] % p), None)
        if piv is None:
            return None
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, p) % p
        for row in range(r):
            if row != col and aug[row, col]:
                aug[row] = (aug[row] - aug[row, col] * aug[col]) % p
    return aug[:, r:]


def random_automorphism(rng: random.Random, p: int, exps) -> tuple[np.ndarray, np.ndarray]:
    """(M, Minv): new generator h_a = sum_i M[a, i] g_i.

    Any invertible matrix when the shape is elementary abelian; otherwise
    a diagonal of units, which is an automorphism of every shape.
    """
    r = len(exps)
    if all(e == 1 for e in exps):
        while True:
            M = np.array([[rng.randrange(p) for _ in range(r)] for _ in range(r)], dtype=np.int64)
            Minv = _inverse_mod_p(M, p)
            if Minv is not None:
                return M, Minv
    units = []
    for e in exps:
        m = p ** e
        u = rng.randrange(1, m)
        while u % p == 0:
            u = rng.randrange(1, m)
        units.append(u)
    M = np.diag(units).astype(np.int64)
    Minv = np.diag([pow(u, -1, p ** e) for u, e in zip(units, exps)]).astype(np.int64)
    return M, Minv


def change_basis(p: int, exps, consts: np.ndarray, M: np.ndarray, Minv: np.ndarray) -> np.ndarray:
    """Bilinear structure constants in the basis h = M g."""
    in_g = np.einsum("ai,bj,ijk->abk", M, M, consts)
    return _reduce(p, exps, in_g @ Minv)


# ---------------------------------------------------------------------------
# Verified instances.


def _lie_class(p, exps, sc) -> int | None:
    return liering.lower_central_series(LieRingSC(PShape(p, exps), sc)).nilpotency_class


def lie_instance(name: str, seed: int, p: int, exps, family: str, target_class: int) -> Instance:
    """family: "abelian", "heisenberg" (a central bracket, then a change of
    basis) or "graded" (support rule, drawn until target_class)."""
    exps = tuple(exps)
    rng = _rng(seed, name)
    r = len(exps)
    for _ in range(MAX_DRAWS):
        if family == "abelian":
            sc = np.zeros((r, r, r), dtype=np.int64)
        elif family == "heisenberg":
            sc = np.zeros((r, r, r), dtype=np.int64)
            sc[0, 1, r - 1], sc[1, 0, r - 1] = 1, -1
            sc = change_basis(p, exps, _reduce(p, exps, sc), *random_automorphism(rng, p, exps))
        else:
            sc = graded_sc(rng, p, exps, 2 if target_class <= 2 else None)
        if _lie_class(p, exps, sc) == target_class:
            break
    else:
        raise RuntimeError(f"{name}: no draw reached class {target_class}")
    inst = Instance(name, "lie", p, exps, (_frozen(sc),))
    L = inst.build()
    if not liering.verify_lie(L).ok or not liering.is_lazard(L):
        raise RuntimeError(f"{name}: generated Lie ring is not a Lazard Lie ring")
    return inst


def _postlie_checked(name, p, exps, sc, tri) -> Instance:
    inst = Instance(name, "postlie", p, tuple(exps), (_frozen(sc), _frozen(tri)))
    P = inst.build()
    if not postlie.verify_post_lie(P).ok:
        raise RuntimeError(f"{name}: generated ring is not post-Lie")
    k = postlie.l_series(P).nilpotency_class
    if k is None or k >= p:
        raise RuntimeError(f"{name}: generated post-Lie ring is not Lazard")
    return inst


def triangle_instance(name: str, seed: int, p: int, exps, triangle: str, target_class: int) -> Instance:
    """Zero (a>b = 0) or negated-bracket (a>b = -[a,b]) triangle on a
    graded Lie ring of the target class."""
    lie = lie_instance(name, seed, p, exps, "graded", target_class)
    sc = lie.arrays[0]
    tri = np.zeros_like(sc) if triangle == "zero" else _reduce(p, exps, -sc)
    return _postlie_checked(name, p, exps, sc, tri)


def prelie_instance(name: str, seed: int, p: int, family: str) -> Instance:
    """The pre-Lie families on an abelian base, under a seeded change of basis.

    radical: pZ/p^4Z with the ring product, on (p;[3]);
    self-square: g1 > g1 = g2 on (p;[1,1]);
    antisymmetric: a > b = (a1 b2 - a2 b1) g3 on (p;[1,1,1]);
    product-radical: two radical lines on (p;[2,2]).
    """
    exps, products = {
        "radical": ((3,), {(0, 0): (p,)}),
        "selfsquare": ((1, 1), {(0, 0): (0, 1)}),
        "antisym": ((1, 1, 1), {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)}),
        "prodradical": ((2, 2), {(0, 0): (p, 0), (1, 1): (0, p)}),
    }[family]
    r = len(exps)
    tri = np.zeros((r, r, r), dtype=np.int64)
    for (i, j), coords in products.items():
        tri[i, j] = coords
    tri = change_basis(p, exps, _reduce(p, exps, tri), *random_automorphism(_rng(seed, name), p, exps))
    return _postlie_checked(name, p, exps, np.zeros((r, r, r), dtype=np.int64), tri)


def radical_brace_instance(name: str, seed: int, p: int, e: int) -> Instance:
    """a o b = a + ab + b on the ideal pZ/p^(e+1)Z, straight from the ring
    arithmetic, with the carrier relabelled by a permutation fixing 0."""
    n = p ** e
    u = np.arange(n, dtype=np.int64)
    dot = np.add.outer(u, u) % n
    circ = (u[:, None] + u[None, :] + p * u[:, None] * u[None, :]) % n
    rng = _rng(seed, name)
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = np.array([0] + rest, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[sigma] = u
    relabel = lambda t: sigma[t[inv[:, None], inv[None, :]]]
    inst = Instance(name, "skewbrace", p, (e,), (_frozen(relabel(dot)), _frozen(relabel(circ))))
    B = inst.build()
    if not skewbrace.verify_skew_brace(B).ok:
        raise RuntimeError(f"{name}: generated tables are not a skew brace")
    k = skewbrace.l_series_brace(B).nilpotency_class
    if k is None or k >= p:
        raise RuntimeError(f"{name}: generated skew brace is not Lazard")
    return inst


# ---------------------------------------------------------------------------
# The workload lists.


def _variants(name: str, count: int) -> list[str]:
    return [name] + [f"{name}_v{i}" for i in range(2, count + 1)]


def lazard_instances(seed: int, tiny: bool = False) -> list[Instance]:
    """Lie rings of order p^4: abelian, Heisenberg-type and graded.

    Seeded families come in several variants, so that the order-625 rings
    hold the median op and the one order-2401 ring dominates the pass.
    Only three order-81 rings are kept, so that the median op falls inside
    the cluster of order-625 rings rather than at its fast edge.
    """
    specs = [
        # name, variants, p, exps, family, class
        ("ab_p3_1111", 1, 3, (1, 1, 1, 1), "abelian", 1),
        ("heis_p3_1111", 1, 3, (1, 1, 1, 1), "heisenberg", 2),
        ("grad2_p3_211", 1, 3, (2, 1, 1), "graded", 2),
        ("ab_p5_22", 1, 5, (2, 2), "abelian", 1),
        ("heis_p5_1111", 2, 5, (1, 1, 1, 1), "heisenberg", 2),
        ("grad2_p5_1111", 3, 5, (1, 1, 1, 1), "graded", 2),
        ("grad3_p5_1111", 1, 5, (1, 1, 1, 1), "graded", 3),
        ("grad2_p5_211", 3, 5, (2, 1, 1), "graded", 2),
        ("ab_p7_22", 1, 7, (2, 2), "abelian", 1),
    ]
    if tiny:
        specs = [s for s in specs if s[2] == 3][:3]
    return [lie_instance(name, seed, p, exps, fam, k)
            for stem, count, p, exps, fam, k in specs for name in _variants(stem, count)]


def correspondence_instances(seed: int, tiny: bool = False) -> list[Instance]:
    """Post-Lie files (triangles on graded rings, pre-Lie families) and
    radical skew-brace files."""
    out = [
        prelie_instance("selfsq_p5", seed, 5, "selfsquare"),
        prelie_instance("selfsq_p7", seed, 7, "selfsquare"),
        prelie_instance("prodrad_p3", seed, 3, "prodradical"),
    ]
    if tiny:
        return out
    out += [
        *(triangle_instance(name, seed, 5, (1, 1, 1), "zero", 2) for name in _variants("zero_p5_111", 2)),
        *(triangle_instance(name, seed, 5, (1, 1, 1), "neg", 2) for name in _variants("neg_p5_111", 2)),
        prelie_instance("radical_p5", seed, 5, "radical"),
        *(prelie_instance(name, seed, 5, "antisym") for name in _variants("antisym_p5", 2)),
        *(radical_brace_instance(name, seed, 5, 3) for name in _variants("brace_p5_3", 3)),
        radical_brace_instance("brace_p5_4", seed, 5, 4),
    ]
    return out


def transfer_instances(seed: int, tiny: bool = False) -> list[Instance]:
    """Post-Lie rings of order 27-125 with many additive subgroups."""
    out = [
        *(triangle_instance(name, seed, 3, (1, 1, 1), "zero", 2) for name in _variants("zero_p3_111", 2)),
        *(triangle_instance(name, seed, 3, (1, 1, 1), "neg", 2) for name in _variants("neg_p3_111", 2)),
        prelie_instance("antisym_p3", seed, 3, "antisym"),
    ]
    if tiny:
        return out[::2]
    # With three passes (45 ops), the median op falls in the middle of the
    # seven (3;[1,1,1]) rings and op_tail_s in the middle of the three
    # product-radical rings of equal cost, not at the edge of either group.
    out += [
        triangle_instance("zero_p3_111_v3", seed, 3, (1, 1, 1), "zero", 2),
        prelie_instance("antisym_p3_v2", seed, 3, "antisym"),
        *(triangle_instance(name, seed, 3, (2, 1), "zero", 1) for name in _variants("zero_p3_21", 3)),
        *(prelie_instance(name, seed, 3, "prodradical") for name in _variants("prodrad_p3", 3)),
        triangle_instance("zero_p5_111", seed, 5, (1, 1, 1), "zero", 2),
        _heisenberg_zero("heis_p3_1111", seed, 3),
    ]
    return out


def _heisenberg_zero(name: str, seed: int, p: int) -> Instance:
    lie = lie_instance(name, seed, p, (1, 1, 1, 1), "heisenberg", 2)
    sc = lie.arrays[0]
    return _postlie_checked(name, p, lie.exps, sc, np.zeros_like(sc))


INSTANCES = {
    "lazard": lazard_instances,
    "correspondence": correspondence_instances,
    "transfer": transfer_instances,
}


def serialize(instances: list[Instance]) -> bytes:
    """Canonical bytes of an instance list (names, shapes, arrays)."""
    parts = []
    for inst in instances:
        head = f"{inst.name} {inst.kind} {inst.p} {','.join(map(str, inst.exps))}\n"
        parts.append(head.encode("ascii"))
        parts.extend(a.astype("<i8").tobytes() for a in inst.arrays)
    return b"".join(parts)


def digest(instances: list[Instance]) -> str:
    return hashlib.sha256(serialize(instances)).hexdigest()


# ---------------------------------------------------------------------------
# Independent subgroup count, for the transfer check.


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _conjugate(parts, length: int) -> list[int]:
    return [sum(1 for x in parts if x >= i) for i in range(1, length + 2)]


def _sub_partitions(lam: tuple[int, ...]):
    """Every partition mu with mu_i <= lam_i."""
    if not lam:
        yield ()
        return
    for rest in _sub_partitions(lam[1:]):
        top = rest[0] if rest else 0
        for first in range(top, lam[0] + 1):
            yield (first,) + rest


def subgroup_total(p: int, exps) -> int:
    """Number of subgroups of Z/p^e1 (+) ... (+) Z/p^er, by the Birkhoff-
    Delsarte count of subgroups of each type mu inside type lambda:

        prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_p
    """
    lam = tuple(sorted(exps, reverse=True))
    top = lam[0]
    lc = _conjugate(lam, top)
    total = 0
    for mu in _sub_partitions(lam):
        mc = _conjugate([m for m in mu if m], top)
        count = 1
        for i in range(top):
            count *= p ** (mc[i + 1] * (lc[i] - mc[i]))
            count *= _gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
        total += count
    return total
