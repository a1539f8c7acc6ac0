"""Exact arithmetic over finite abelian p-groups Z/p^e1 (+) ... (+) Z/p^er.

Coordinate vectors over an invariant-factor shape, rational scalars acting
through modular inverses, additive endomorphisms with truncated exp/log,
recovery of the shape from a raw addition table, primitive (p-1)-th roots
of unity modulo p^e, and the one way element tables are built: a
breadth-first Schreier tree of generator rows, and tables filled along it.

Everything is integer exact.  An operation that would divide by the
ambient prime raises ModArithError instead of silently reducing.  All
values are immutable after construction and safe to share between tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .common import FailedTheoremError

__all__ = [
    "ModArithError",
    "PShape",
    "PVec",
    "Endo",
    "endo_exp",
    "endo_log",
    "AbelianBasis",
    "abelian_decompose",
    "root_of_unity",
    "is_prime",
    "prime_power",
]


_CHUNK = 1 << 18  # entries in one block of a whole-table walk (_walk)


class ModArithError(ValueError):
    """Raised when a modarith precondition fails."""


def _block_rows(width: int | None = None) -> int:
    """The block-size rule: rows of `width` entries in a block of about
    _CHUNK entries, or, with no width, the side of a square block."""
    return max(1, math.isqrt(_CHUNK) if width is None else _CHUNK // max(1, width))


def _walk(m: int, width: int, *tests, rows=None, mirror: bool = False):
    """The one block walk: every whole-table read in lazbrace is one call,
    so what a read holds, and any intp index a gather forms, is one block.
    Blocks are slices blk of range(m) of _block_rows(width) rows, width the
    entries read per row; or, with mirror, the pairs (I, J), I at or before
    J, of square slices (_block_rows()) tiling the upper triangle of an
    m x m table, read along rows with the mirror block (J, I).

    With no tests it returns the row blocks, for a caller that writes or
    yields per block.  Otherwise each test(blk), test(blk, rows(blk)) (one
    rows call per block) or test(I, J) returns a boolean block, or None if
    it only writes; the walk returns each test's first (row, column) where
    it holds, in row-major order, or None, and stops once all have one.  A
    mirror test must hold at (a, b) exactly when at (b, a).

    Outside it: the fills along tree runs (_fill, _is_group_fill, sized by
    _block_rows), and three reads that only name a failure already found
    (verify_group_table's Latin-square scatters, _index_rows' argwhere and
    abelian_decompose's row sort)."""
    step = _block_rows(None if mirror else width)
    cuts = [slice(i, min(m, i + step)) for i in range(0, m, step)]
    if not tests:
        return iter(cuts)
    lines = [[(I, J) for J in cuts[k:]] if mirror else [(I,)] for k, I in enumerate(cuts)]
    found = [None] * len(tests)
    for line in lines:
        hits = [[] for _ in tests]
        for blk in line:
            args = blk if rows is None else (*blk, rows(*blk))
            for j, test in enumerate(tests):
                if found[j] is None and (bad := test(*args)) is not None and bad.any():
                    x, y = np.unravel_index(bad.argmax(), bad.shape)  # the first True, with no index of all
                    hits[j].append((blk[0].start + int(x), (blk[1].start if mirror else 0) + int(y)))
                bad = None  # freed before the next block is read
        found = [at if at is not None else min(hit, default=None) for at, hit in zip(found, hits)]
        if None not in found:
            break
    return found


def index_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype that holds every element index 0..n-1:
    uint8 up to n = 256, uint16 up to 65536, uint32 above.  Element-index
    tables are stored in it; values that need negatives or arithmetic
    (sentinels, x * n + y keys, differences) are taken as int64 first."""
    return np.min_scalar_type(max(n - 1, 0))


def _index_table(table, n: int | None = None) -> np.ndarray:
    """An n x n element-index table (n defaults to its row count) as a
    read-only C-contiguous array in index_dtype(n), or, for a constant
    table given as a zero-stride view, a read-only view (_index_rows).

    The range 0 <= v < n is checked on the given array, before the cast,
    so no entry wraps into range; ModArithError names the first (row,
    column, value) outside it.
    """
    arr = np.asarray(table)
    n = arr.shape[0] if n is None and arr.ndim else n
    if arr.shape != (n, n):
        raise ModArithError(f"table of shape {arr.shape} is not {n} x {n}")
    return _index_rows(arr, n)


def _index_rows(arr: np.ndarray, n: int) -> np.ndarray:
    """_index_table for any 2-D array of element indices below n; an
    unsigned array needs no test from below.

    A constant table held as a zero-stride view (np.broadcast_to of one
    value) stays a view: its one value is checked as the 1 x 1 table it
    repeats, so an out-of-range value is named at (0, 0) with the message
    of the materialised table, and the result is a read-only broadcast of
    that value in index_dtype(n), holding no n x n array."""
    if arr.size > 1 and not any(arr.strides):
        return np.broadcast_to(_index_rows(arr[:1, :1], n), arr.shape)
    if arr.size and ((arr.dtype.kind != "u" and arr.min() < 0) or arr.max() >= n):
        x, y = np.argwhere((arr < 0) | (arr >= n))[0]
        raise ModArithError(f"table entry out of range 0..{n - 1} at (row,column,value)=({x},{y},{arr[x, y]})")
    return _read_only(np.ascontiguousarray(arr, dtype=index_dtype(n)))


def _raise_at(at, what: str, exc=FailedTheoremError, rows=None, cols=None) -> None:
    """Raise exc(what) naming a _walk witness `at`, if any, as (a, b): the
    (row, column), or rows[row] and cols[column] when given."""
    if at is not None:
        x, y = at
        raise exc(f"{what} at (a,b)=({int(x if rows is None else rows[x])},{int(y if cols is None else cols[y])})")


def _mask(n: int, values) -> np.ndarray:
    """The boolean mask of the values below n: a scatter, where np.unique
    would sort (and import numpy.ma)."""
    mask = np.zeros(n, dtype=bool)
    mask[values] = True
    return mask


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Schreier trees, and tables filled along them.


class _Tree(NamedTuple):
    """A breadth-first Schreier tree of z -> g z from `root`: rows[i] is
    x -> gens[i] x in index_dtype(n), and each level is a list of runs
    (ys, zs, i), one per generator i, with ys = gens[i] zs.  powers[i] = p
    where gens[i] is the p-th power of gens[i - 1] (p the least prime
    dividing n), else 0."""

    root: int
    gens: list[int]
    rows: np.ndarray
    levels: list
    powers: list[int]


def _schreier(n: int, identity: int, rows_of, gens, grow: bool = False) -> _Tree:
    """Grow the tree over 0..n-1 one vectorised level at a time; rows_of(X)
    stacks the rows x -> g x for the elements g of an index array X.

    Each generator joins with its power generators g^p, g^(p^2), ... short
    of the identity (and of p^j = n): each row is the one before composed
    p times, and its element that row at the identity, so a cyclic factor
    of order p^e takes e (p - 1) levels, not p^e - 1.  A level takes
    gens[i] z for i in order and z in the previous level in increasing
    order, and marks each new element at its first edge as it goes (first
    occurrences, where rows that are no permutations repeat a candidate);
    the next level is the sorted union.  Where the tree stops short, its
    least unreached element joins the generators (grow) or is named in a
    FailedTheoremError.  Every 2 isqrt(n) levels the least element of the
    newest level joins them too, so that no tree is much deeper than
    2.5 sqrt(n)."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    given = np.asarray(gens, dtype=np.int64)
    gens, rows, powers = [], [], []

    def join(new, new_rows) -> None:
        for g, row in zip(new, new_rows):
            power, q = 0, 1
            while power == 0 or (g != identity and q < n):
                gens.append(int(g))
                rows.append(row)
                powers.append(power)
                acc = row
                for _ in range(p - 1):
                    acc = row.take(acc)
                g, row, power, q = acc[identity], acc, p, q * p

    join(given, rows_of(given) if given.size else [])
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    count, levels, frontier = 1, [], np.array([identity])
    deep = 2 * math.isqrt(n)
    while count < n:
        blocks = [(frontier, i) for i in range(len(gens))] if frontier.size else []
        if not blocks or len(levels) % deep == deep - 1:
            new = int(frontier[0]) if blocks else int(np.argmin(reached))
            if not (blocks or grow):
                raise FailedTheoremError(
                    f"generator rows do not generate: the Schreier tree misses element {new}")
            start = len(gens)
            join([new], rows_of(np.array([new])))
            blocks += [(np.flatnonzero(reached), i) for i in range(start, len(gens))]
        runs = []
        for zs, i in blocks:
            cand = rows[i].take(zs)
            fresh = ~reached.take(cand)
            ys = cand[fresh]
            reached[ys] = True
            if np.count_nonzero(reached) - count < ys.size:  # a repeated candidate keeps its first edge
                keep = np.flatnonzero(fresh)[np.sort(np.unique(ys, return_index=True)[1])]
                fresh, ys = keep, cand[keep]
            count += ys.size
            if ys.size:
                runs.append((ys, zs[fresh], i))
        levels.append(runs)
        frontier = np.sort(np.concatenate([ys for ys, _, _ in runs])) if runs else np.array([], dtype=np.int64)
    return _Tree(identity, gens, _index_rows(np.asarray(rows, dtype=np.int64).reshape(-1, n), n), levels, powers)


def _fill(tree: _Tree, first, step) -> np.ndarray:
    """The (n, m) table over the tree's n elements with row `first` (m
    element indices below n) at the root and row y = step(i, row z) on each
    tree edge y = gens[i] z: one step per run, with i one generator and Z
    the (k, m) rows of its zs (chunked); it may return Z itself (a copy
    run).  A step that forms a flat index into an n x n table forms it in
    intp, as n^2 overflows index_dtype(n)."""
    n, m = tree.rows.shape[1], len(first)
    table = np.empty((n, m), dtype=index_dtype(n))
    table[tree.root] = first
    chunk = _block_rows(m)
    for level in tree.levels:
        for ys, zs, i in level:
            for a in range(0, ys.size, chunk):
                table[ys[a:a + chunk]] = step(i, table[zs[a:a + chunk]])
    return table


def _fill_group(tree: _Tree) -> np.ndarray:
    """The Cayley table of an associative product fixed by the tree's
    generator rows: row y = g z is row_g[row z], one 1-D take per run."""
    return _fill(tree, np.arange(tree.rows.shape[1]), lambda i, Z: tree.rows[i].take(Z))


def _is_group_fill(tree: _Tree, table: np.ndarray) -> bool:
    """table == _fill_group(tree), compared run by run where the fill would
    write, without building the fill: when the rows of the zs match the
    fill, rows of the ys that pass are the fill's rows too, and every
    element is the root or the y of one edge."""
    n = tree.rows.shape[1]
    chunk = _block_rows(n)
    return np.array_equal(table[tree.root], np.arange(n)) and all(
        np.array_equal(table[ys[a:a + chunk]], tree.rows[i].take(table[zs[a:a + chunk]]))
        for level in tree.levels for ys, zs, i in level for a in range(0, ys.size, chunk))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int]:
    """Return (p, k) with n = p^k, k >= 1, or raise ModArithError."""
    if n < 2:
        raise ModArithError(f"{n} is not a prime power")
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ModArithError(f"{n} is not a prime power")
    return p, k


@dataclass(frozen=True)
class PShape:
    """Invariant-factor shape (p; e1 >= e2 >= ... >= er >= 1).

    Elements are coordinate tuples, coordinate i reduced mod p^e_i.  The
    carrier is enumerated little-endian: coordinate 0 varies fastest, so
    index = sum_i c_i * stride_i with stride_0 = 1.
    """

    p: int
    exps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(int(e) for e in self.exps))
        if not is_prime(self.p):
            raise ModArithError(f"p = {self.p} is not prime")
        if not self.exps:
            raise ModArithError("shape needs at least one cyclic factor")
        if any(e < 1 for e in self.exps):
            raise ModArithError("shape exponents must be >= 1")
        if any(a < b for a, b in zip(self.exps, self.exps[1:])):
            raise ModArithError("shape exponents must be non-increasing")

    @property
    def rank(self) -> int:
        return len(self.exps)

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p ** e for e in self.exps)

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def max_modulus(self) -> int:
        return self.p ** self.exps[0]

    @cached_property
    def _np_moduli(self) -> np.ndarray:
        return _read_only(np.array(self.moduli, dtype=np.int64))

    @cached_property
    def _strides(self) -> np.ndarray:
        return _read_only(np.cumprod((1,) + self.moduli[:-1], dtype=np.int64))

    def np_moduli(self) -> np.ndarray:
        return self._np_moduli

    def reduce(self, arr) -> np.ndarray:
        """Reduce an integer array of coordinates (..., r) mod the moduli."""
        return np.mod(np.asarray(arr, dtype=np.int64), self._np_moduli)

    def strides(self) -> np.ndarray:
        return self._strides

    def index_batch(self, coords) -> np.ndarray:
        return (self.reduce(coords) * self._strides).sum(axis=-1)

    def coords_batch(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape + (self.rank,), dtype=np.int64)
        mods = self.moduli
        rem = idx
        for i in range(self.rank):
            out[..., i] = rem % mods[i]
            rem = rem // mods[i]
        return out

    def all_coords(self) -> np.ndarray:
        return self.coords_batch(np.arange(self.order))

    def index_of(self, coords) -> int:
        return int(self.index_batch(np.asarray(coords, dtype=np.int64)))

    def zero(self) -> "PVec":
        return PVec(self, (0,) * self.rank)

    def unit(self, i: int) -> "PVec":
        c = [0] * self.rank
        c[i] = 1
        return PVec(self, tuple(c))

    def units(self) -> tuple["PVec", ...]:
        return tuple(self.unit(i) for i in range(self.rank))

    def vec(self, coords) -> "PVec":
        return PVec(self, tuple(int(x) for x in self.reduce(np.asarray(coords))))

    def vec_of_index(self, index: int) -> "PVec":
        return PVec(self, tuple(int(x) for x in self.coords_batch(int(index))))

    @cached_property
    def carrier(self) -> "AbelianBasis":
        """The shape's own carrier: the identity-labelled basis, whose tree
        lives as long as this shape, and its addition table too once asked
        for as add (AbelianBasis.additive_table does not ask for it)."""
        idx = _read_only(np.arange(self.order, dtype=np.int64))
        return AbelianBasis(self, tuple(int(u) for u in self._strides), idx, idx)

    def scale_multiplier(self, q: Fraction | int) -> int:
        """Integer m with m = q mod every modulus; q's denominator must be prime to p."""
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ModArithError(
                f"not p-divisible: denominator {q.denominator} shares the prime {self.p}"
            )
        m = self.max_modulus
        return (q.numerator * pow(q.denominator, -1, m)) % m

    def scale_batch(self, arr, q: Fraction | int) -> np.ndarray:
        return self.reduce(np.asarray(arr, dtype=np.int64) * self.scale_multiplier(q))

    def __str__(self):
        return f"({self.p};[{','.join(str(e) for e in self.exps)}])"


@dataclass(frozen=True)
class PVec:
    """Element of the abelian p-group described by `shape`."""

    shape: PShape
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.shape.rank:
            raise ModArithError("coordinate count does not match shape rank")
        red = tuple(int(c) % m for c, m in zip(self.coords, self.shape.moduli))
        object.__setattr__(self, "coords", red)

    def _check(self, other: "PVec"):
        if self.shape != other.shape:
            raise ModArithError("shape mismatch")

    def __add__(self, other: "PVec") -> "PVec":
        self._check(other)
        return PVec(self.shape, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "PVec":
        return PVec(self.shape, tuple(-a for a in self.coords))

    def __rmul__(self, n: int) -> "PVec":
        return PVec(self.shape, tuple(n * a for a in self.coords))

    def scale(self, q: Fraction | int) -> "PVec":
        """Rational scalar action; q.denominator must be coprime to p."""
        m = self.shape.scale_multiplier(q)
        return PVec(self.shape, tuple(m * a for a in self.coords))

    @property
    def index(self) -> int:
        return self.shape.index_of(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def np(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Endo:
    """Additive endomorphism, or a stack of them, as an integer matrix.

    mat has shape (..., r, r); mat[..., j, :] is the image of the j-th
    generator, and well-definedness demands p^e_j * mat[..., j, :] = 0, i.e.
    mat[..., j, i] = 0 mod p^(e_i - e_j) when e_i > e_j.  Evaluation:
    f(v) = v @ mat, so f o g has matrix mat_g @ mat_f.  Every operation works
    on a whole stack, broadcasting as numpy does.
    """

    shape: PShape
    mat: np.ndarray

    def __post_init__(self):
        s = self.shape
        mat = s.reduce(self.mat)
        if mat.shape[-2:] != (s.rank, s.rank):
            raise ModArithError("endomorphism needs one image (r coordinates) per generator")
        bad = np.argwhere(s.reduce(s.np_moduli()[:, None] * mat).any(axis=-1))
        if bad.size:
            j = int(bad[0, -1])
            raise ModArithError(f"not an additive map: p^{s.exps[j]} * image of g{j} is nonzero")
        object.__setattr__(self, "mat", _read_only(mat))

    @classmethod
    def from_matrix(cls, shape: PShape, mat) -> "Endo":
        return cls(shape, mat)

    @classmethod
    def identity(cls, shape: PShape) -> "Endo":
        return cls(shape, np.eye(shape.rank, dtype=np.int64))

    @classmethod
    def zero(cls, shape: PShape) -> "Endo":
        return cls(shape, np.zeros((shape.rank, shape.rank), dtype=np.int64))

    def matrix(self) -> np.ndarray:
        return self.mat

    def apply_batch(self, coords) -> np.ndarray:
        return self.shape.reduce(np.asarray(coords, dtype=np.int64) @ self.mat)

    def apply(self, v: PVec) -> PVec:
        if v.shape != self.shape:
            raise ModArithError("shape mismatch")
        return self.shape.vec(self.apply_batch(v.np()))

    def _check(self, other: "Endo"):
        if self.shape != other.shape:
            raise ModArithError("shape mismatch")

    def __add__(self, other: "Endo") -> "Endo":
        self._check(other)
        return Endo(self.shape, self.mat + other.mat)

    def __sub__(self, other: "Endo") -> "Endo":
        self._check(other)
        return Endo(self.shape, self.mat - other.mat)

    def after(self, other: "Endo") -> "Endo":
        """Composition self o other, (self.after(other))(x) = self(other(x))."""
        self._check(other)
        return Endo(self.shape, other.mat @ self.mat)

    @property
    def is_zero(self) -> bool:
        return not self.mat.any()

    def commutator(self, other: "Endo") -> "Endo":
        return self.after(other) - other.after(self)

    def __eq__(self, other):
        return isinstance(other, Endo) and self.shape == other.shape and np.array_equal(self.mat, other.mat)


def _nil_series(d: Endo, nil_bound: int, coeff) -> Endo:
    """sum_{k<nil_bound} coeff(k) d^k over a stack of maps d with d^nil_bound = 0.

    Each power is computed once; the last one, d^nil_bound, is the
    nilpotency check.  coeff(k) is a rational with denominator prime to p.
    """
    s = d.shape
    if nil_bound < 1 or nil_bound >= s.p:
        raise ModArithError("denominator divisible by p: need nil bound <= p-1")
    power = np.broadcast_to(np.eye(s.rank, dtype=np.int64), d.mat.shape)
    acc = np.zeros(d.mat.shape, dtype=np.int64)
    for k in range(nil_bound):
        acc = s.reduce(acc + s.scale_multiplier(coeff(k)) * power)
        power = s.reduce(power @ d.mat)
    if power.any():
        raise ModArithError("endomorphism is not nilpotent within the stated bound")
    return Endo(s, acc)


def endo_exp(d: Endo, nil_bound: int) -> Endo:
    """exp(d) = sum_{k<nil_bound} d^k / k! for d nilpotent of index <= nil_bound < p;
    d may be a stack of maps."""
    return _nil_series(d, nil_bound, lambda k: Fraction(1, math.factorial(k)))


def endo_log(f: Endo, nil_bound: int) -> Endo:
    """log(f) = sum_{1<=k<nil_bound} (-1)^(k+1) (f-id)^k / k, inverse of endo_exp;
    f may be a stack of maps, and f - id must be nilpotent of index <= nil_bound."""
    return _nil_series(f - Endo.identity(f.shape), nil_bound,
                       lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


# ---------------------------------------------------------------------------
# Invariant-factor decomposition of a raw addition table.


@dataclass(frozen=True)
class AbelianBasis:
    """Explicit isomorphism between a table group and its invariant-factor shape.

    elem_of[i] is the table element matching shape-enumeration index i;
    index_of_elem is its inverse permutation.  gens[i] is the element of the
    i-th unit vector.  The relabelling between table elements and shape
    coordinates goes through coords, elems and relabel.  The carrier's
    additive Schreier tree is built once, on first use, and additive_table
    fills every table of additive maps along that tree.  The addition table
    add is held only once asked for (abelian_decompose holds the table it
    was given); additive_table reads it when held and otherwise fills one
    for that call alone.
    """

    shape: PShape
    gens: tuple[int, ...]
    elem_of: np.ndarray
    index_of_elem: np.ndarray

    @cached_property
    def coords(self) -> np.ndarray:
        """coords[t]: the shape coordinates of table element t (read-only)."""
        return _read_only(self.shape.all_coords()[self.index_of_elem])

    def elems(self, coords) -> np.ndarray:
        """The table elements of coordinate rows (..., r), reduced first."""
        return self.elem_of[self.shape.index_batch(coords)]

    def relabel(self, table: np.ndarray, blk: slice | None = None) -> np.ndarray:
        """A table on shape indices, moved onto the table elements, in
        index_dtype(n), a _walk block of rows at a time; or its rows blk."""
        ie = self.index_of_elem
        if blk is not None:
            return self.elem_of.take(table[ie[blk, None], ie])
        out = np.empty(table.shape, dtype=index_dtype(len(ie)))
        for blk in _walk(len(ie), len(ie)):
            out[blk] = self.relabel(table, blk)
        return out

    def relabels_to(self, table: np.ndarray, target: np.ndarray) -> bool:
        """relabel(table) == target, with no relabelled table built."""
        return _walk(len(target), len(target), lambda blk: self.relabel(table, blk) != target[blk])[0] is None

    @cached_property
    def tree(self) -> _Tree:
        """The additive Schreier tree of the carrier from the unit vectors
        gens[i], each followed by its multiples p^j gens[i], j < e_i (the
        tree's power generators), so that coordinate i takes e_i (p - 1)
        levels, not p^e_i - 1: row g is x -> x + g, computed in coordinates
        for the unit vectors and the generators the tree adds itself."""
        coords = self.coords
        return _schreier(len(coords), int(self.elem_of[0]),
                         lambda G: self.elems(coords + coords[G][:, None]), self.gens)

    @cached_property
    def add(self) -> np.ndarray:
        """The carrier's addition table, filled along the tree (read-only):
        the shape's addition moved onto the table elements."""
        return _read_only(_fill_group(self.tree))

    def additive_table(self, images) -> np.ndarray:
        """The (m, n) table of m additive maps f_j of the carrier, row j
        holding f_j, from images(X): the (m, k, r) coordinates of f_j(x)
        for the (k, r) coordinate rows X of the tree generators.

        Filled along the tree as the (n, m) table T[x] = (f_j(x))_j, T[g +
        z] = add[T[g], T[z]], and returned as its transpose (a view).  Every
        generator image, those of the generators the tree adds itself
        included, comes from images(), never from a table under test; so
        for well-defined matrix or bilinear maps the table is the maps
        themselves, entry for entry.  The fill reads add when it is held,
        and otherwise an addition table filled along the tree for this call
        and freed after it, so a fill leaves no n x n table on the basis.
        """
        tree = self.tree
        add = vars(self).get("add")
        cols = np.ascontiguousarray(self.elems(images(self.coords[tree.gens])).T)  # (k, m)
        flat = (_fill_group(tree) if add is None else add).ravel()
        base = cols.astype(np.intp) * len(self.coords)  # add[c, z] = flat[c n + z]
        return _fill(tree, np.full(cols.shape[1], self.elem_of[0]), lambda i, Z: flat.take(base[i] + Z)).T

    def vec_of(self, t: int) -> PVec:
        return self.shape.vec_of_index(int(self.index_of_elem[t]))

    def elem_of_vec(self, v: PVec) -> int:
        return int(self.elem_of[v.index])


def _table_times(table: np.ndarray, x: np.ndarray, n: int, identity: int) -> np.ndarray:
    """n-fold table sum of each entry of x (n >= 0), via doubling."""
    acc = np.full_like(x, identity)
    base = x
    while n > 0:
        if n & 1:
            acc = table[acc, base]
        base = table[base, base]
        n >>= 1
    return acc


def _left_identities(table: np.ndarray) -> np.ndarray:
    """The rows e of a nonempty square table with e x = x for all x: only
    the rows with e 0 = 0 are compared whole."""
    lead = np.flatnonzero(table[:, 0] == 0)
    return lead[(table[lead] == np.arange(table.shape[0])).all(axis=1)]


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    hits = _left_identities(table)
    if hits.size != 1:
        raise ModArithError("table has no unique identity row")
    e = int(hits[0])
    if not (table[:, e] == np.arange(n)).all():
        raise ModArithError("identity is not two-sided")
    return e


def _table_orders(table: np.ndarray, identity: int, p: int) -> np.ndarray:
    """Orders of all elements of a group table through successive p-th
    powers; each must be a power of p."""
    n = table.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    cur = np.arange(n)
    t = 0
    while True:
        orders[(cur == identity) & (orders == 0)] = p ** t
        if (orders != 0).all():
            return orders
        cur = _table_times(table, cur, p, identity)
        t += 1
        if p ** t > n:
            raise ModArithError("element order is not a p-power")


def _greedy_decompose(table: np.ndarray, identity: int, p: int) -> list[tuple[int, int]]:
    """Return [(generator element, exponent e_i), ...], e_i non-increasing."""
    n = table.shape[0]
    if n == 1:
        return []
    orders = _table_orders(table, identity, p)
    maxo = int(orders.max())
    e1 = 0
    while p ** e1 < maxo:
        e1 += 1
    g = int(np.nonzero(orders == maxo)[0][0])
    # cyclic subgroup of g, with discrete logs
    chain = [identity]
    x = identity
    for _ in range(maxo - 1):
        x = int(table[x, g])
        chain.append(x)
    dlog = {x: i for i, x in enumerate(chain)}
    # quotient by <g>: canonical representative = smallest index in the coset
    reps_of = table[:, np.array(chain, dtype=np.int64)].min(axis=1)
    reps = np.flatnonzero(_mask(n, reps_of))
    qn = reps.size
    if qn * maxo != n:
        raise ModArithError("table is not a group (coset sizes are uneven)")
    qindex = np.empty(n, dtype=index_dtype(qn))
    qindex[reps] = np.arange(qn)
    qtable = np.empty((qn, qn), dtype=qindex.dtype)  # gathered a block of rows at a time
    for blk in _walk(qn, qn):
        qtable[blk] = qindex[reps_of[table[reps[blk, None], reps]]]
    sub = _greedy_decompose(qtable, int(qindex[reps_of[identity]]), p)
    out = [(g, e1)]
    for qgen, f in sub:
        x = int(reps[qgen])
        pf = p ** f
        y = int(_table_times(table, np.array([x]), pf, identity)[0])
        c = dlog.get(y)  # None when the table is no group: y is outside <g>
        if c is None or c % pf != 0:
            raise ModArithError("lift adjustment failed; table is not abelian p-group")
        tshift = (c // pf) % maxo
        adj = chain[(maxo - tshift) % maxo]
        x = int(table[x, adj])
        out.append((x, f))
    return out


def abelian_decompose(table) -> AbelianBasis:
    """Recover the invariant-factor shape of a finite abelian p-group table.

    Returns the shape together with an explicit index <-> vector bijection;
    the bijection provably reproduces the table: the basis's addition
    table, the shape's addition moved through it, equals the table on all
    pairs.  That equality makes the table a group table, so its rows are
    scanned for permutations only when the decomposition or the
    reconstruction fails, to name that failure.  The symmetry and the
    reconstruction are compared a block and its mirror (_walk) or a tree
    run (_is_group_fill) at a time, so the table becomes the basis's
    addition table with no second n x n table or mask built beside it.
    """
    table = _index_table(table)
    n = table.shape[0]
    if n < 2:
        raise ModArithError("trivial table carries no p-group shape")
    if _walk(n, n, lambda I, J: table[I, J] != table[J, I].T, mirror=True)[0] is not None:
        raise ModArithError("table is not abelian")
    try:
        basis = _decomposed_basis(table)
        if not _is_group_fill(basis.tree, table):
            raise ModArithError("table does not match abelian reconstruction")
    except ModArithError:
        if (np.sort(table, axis=1) != np.arange(n)).any():
            raise ModArithError("table rows are not permutations") from None
        raise
    object.__setattr__(basis, "add", table)
    return basis


def _decomposed_basis(table: np.ndarray) -> AbelianBasis:
    """The basis of the greedy decomposition of an abelian table, not yet
    checked against it; ModArithError when the table is no abelian p-group
    in a way the decomposition sees."""
    n = table.shape[0]
    p, _ = prime_power(n)
    identity = _find_identity(table)
    gens_exps = _greedy_decompose(table, identity, p)
    gens = tuple(g for g, _ in gens_exps)
    exps = tuple(e for _, e in gens_exps)
    if any(a < b for a, b in zip(exps, exps[1:])):
        raise ModArithError("decomposition produced increasing exponents")
    shape = PShape(p, exps)
    # little-endian enumeration: coordinate 0 (first generator) fastest
    elem_of = np.array([identity], dtype=np.int64)
    for g, e in gens_exps:
        m = p ** e
        chain = np.empty(m, dtype=np.int64)
        chain[0] = identity
        for i in range(1, m):
            chain[i] = table[chain[i - 1], g]
        elem_of = table[np.asarray(elem_of)[None, :], chain[:, None]].ravel()
    if np.count_nonzero(_mask(n, elem_of)) != n:
        raise ModArithError("decomposition is not bijective; table is not abelian p-group")
    index_of_elem = np.empty(n, dtype=np.int64)
    index_of_elem[elem_of] = np.arange(n)
    return AbelianBasis(shape, gens, elem_of, index_of_elem)


@lru_cache(maxsize=None)
def root_of_unity(p: int, e: int) -> int:
    """Smallest primitive (p-1)-th root of unity modulo p^e, p an odd prime.

    The result x satisfies x^(p-1) = 1 mod p^e while x^k - 1 stays a unit
    for 1 <= k < p-1.  One exists in range(2, p^e): (Z/p^e)^x is cyclic for
    odd p, so a primitive root mod p has a lift of order p - 1, which is
    neither 0 nor 1.
    """
    if not is_prime(p):
        raise ModArithError(f"p = {p} is not prime")
    if p == 2:
        raise ModArithError("p = 2 is degenerate here (p-1 = 1); need an odd prime")
    if e < 1:
        raise ModArithError("exponent must be >= 1")
    mod = p ** e
    return next(xi for xi in range(2, mod)
                if pow(xi, p - 1, mod) == 1 and all(pow(xi, k, p) != 1 for k in range(1, p - 1)))
