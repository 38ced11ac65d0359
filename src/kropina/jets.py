"""Dense truncated multivariate Taylor arithmetic ("jets").

A jet holds the value and all partial derivatives of a smooth function up
to a fixed total order K at one point, stored as Taylor coefficients
c_mu = D^mu f / mu! over a graded-lexicographic multi-index basis.  All
ring operations are exact truncated-series arithmetic: the only error in
any derivative extracted from a jet is floating-point roundoff, never a
truncation-order error.

Multiplication uses a precomputed triple table (i, j, k) with
idx[i] + idx[j] = idx[k].  A product of one jet is one ``np.bincount``
over it, which keeps the n = 4, K = 4 case (495 coefficients) in the
tens of microseconds; a batch of one row is one jet, and a longer batch
goes rank by rank, per block of rows one gather-multiply of all products
and one slice add per rank of the table, and keeps each row's bincount
bits (see ``_triples``).  A product with a coordinate seed
(``JetSpace.variable``) is a scaled copy plus a shift instead, with the
same bits.  The analytic functions (reciprocal, log, exp, sqrt, sin,
cos) sum their power series in the jet's non-constant part by Horner,
each step multiplying only up to the degree that the remaining steps
keep (truncated Taylor arithmetic; Griewank and Walther, Evaluating
Derivatives, 2008, ch. 13).

Jet matrices are eliminated in one place, ``graded_solve``, on stacked
coefficient arrays rather than entry by entry: one inverse of the
matrix's base value, then a truncated Neumann series for the solution
and a truncated log series for log det, each term one einsum over the
triple table.  ``JetSpace.second_partials`` gathers all second-partial
jets of a jet at once, so the callers build their matrices without a
loop of jet operations.
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

MAX_ORDER = 4
# a batched product gathers at most this many bytes of products per
# block of rows: order-4 blocks over 8 variables hold 6 rows and stay
# in cache, over 12 variables a block is one row
_PRODUCT_BYTES = 1 << 18


class JetOrderError(ValueError):
    """A derivative beyond the jet's truncation order was requested."""


class JetDomainError(ValueError):
    """An elementary function was applied outside its domain."""


def _graded_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    out = []
    for deg in range(order + 1):
        block = []
        for comb in itertools.combinations_with_replacement(range(nvars), deg):
            idx = [0] * nvars
            for v in comb:
                idx[v] += 1
            block.append(tuple(idx))
        # reverse-lex within each degree so the degree-1 block is
        # e_0, e_1, ..., e_{nvars-1} in variable order
        block.sort(reverse=True)
        out.extend(block)
    return out


class JetSpace:
    """Shared tables for all jets with a fixed (nvars, order) signature."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError("jet space needs at least one variable")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.nvars = nvars
        self.order = order
        self.indices = _graded_indices(nvars, order)
        self.ncoef = len(self.indices)
        self.position = {idx: p for p, idx in enumerate(self.indices)}
        self.factorial = np.array(
            [math.prod(math.factorial(e) for e in idx) for idx in self.indices],
            dtype=float,
        )
        self._build_mul_table()
        self._build_deriv_maps()
        self._rank_plans = {}

    def _build_mul_table(self):
        # every pair (i, j) with deg mu_i + deg mu_j <= order, in the
        # order of a double loop over i then j: the degrees do not
        # decrease along the graded basis, so the partners of i are the
        # first count[i] indices.  Each multi-index is one integer in
        # radix order + 1, so the sum of two codes (no digit carries) is
        # the code of gamma = mu_i + mu_j, found by searchsorted.
        idx = np.array(self.indices, dtype=np.int64).reshape(self.ncoef, -1)
        deg = idx.sum(axis=1)
        count = np.searchsorted(deg, self.order - deg, side="right")
        ii = np.repeat(np.arange(self.ncoef), count)
        jj = np.arange(ii.size) - np.repeat(np.cumsum(count) - count, count)
        digits = np.array([(self.order + 1) ** v for v in range(self.nvars)],
                          dtype=np.int64)
        code = idx @ digits
        by_code = np.argsort(code)
        kk = by_code[np.searchsorted(code, code[ii] + code[jj],
                                     sorter=by_code)]
        # grouped by k, keeping the (i, j) order within each group, so a
        # bincount sums in the same order and np.add.reduceat can sum
        # the groups from their starts
        by_k = np.argsort(kk, kind="stable")
        self._mi, self._mj, self._mk = ii[by_k], jj[by_k], kk[by_k]
        self._k_starts = np.searchsorted(self._mk, np.arange(self.ncoef))
        # the outputs of degree <= d are a prefix of the graded basis, so
        # their triples are a prefix of the k-sorted table, sliced once
        degree_ends = np.searchsorted(deg, np.arange(self.order + 1),
                                      side="right")
        self._triple_ends = np.searchsorted(self._mk, degree_ends).tolist()
        self._prefixes = {t: (self._mi[:t], self._mj[:t], self._mk[:t])
                          for t in self._triple_ends}

    def _build_deriv_maps(self):
        # deriv along v maps this space onto jet_space(nvars, order - 1):
        # coef'[t] = coef[_deriv_src[v, t]] * _deriv_scale[v, t], that is
        # coef'[pos(g)] = coef[pos(g + e_v)] * (g_v + 1)
        lower = (_graded_indices(self.nvars, self.order - 1)
                 if self.order else [])
        self._deriv_src = np.empty((self.nvars, len(lower)), dtype=np.intp)
        self._deriv_scale = np.empty((self.nvars, len(lower)))
        for v in range(self.nvars):
            for t, gamma in enumerate(lower):
                bumped = tuple(
                    e + 1 if w == v else e for w, e in enumerate(gamma)
                )
                self._deriv_src[v, t] = self.position[bumped]
                self._deriv_scale[v, t] = gamma[v] + 1.0

    def rank_plan(self, t: int) -> "_RankPlan":
        """The _RankPlan of the first t triples, built on first use: only
        products whose blocks hold two rows or more need one."""
        if t not in self._rank_plans:
            size = np.bincount(self._mk[:t], minlength=self.ncoef)
            by_size = np.argsort(-size, kind="stable")
            counts = [np.count_nonzero(size > g) for g in range(size.max())]
            src = np.concatenate([self._k_starts[by_size[:c]] + g
                                  for g, c in enumerate(counts)])
            self._rank_plans[t] = _RankPlan(
                self._mi[src], self._mj[src], np.cumsum(counts).tolist(),
                np.argsort(by_size))
        return self._rank_plans[t]

    @cached_property
    def hessian_positions(self) -> np.ndarray:
        """pos[a, b]: coefficient position of the multi-index e_a + e_b,
        a gather table for all second partials at once (order >= 2)."""
        if self.order < 2:
            raise JetOrderError("second partials need a jet of order 2 or more")
        pos = np.empty((self.nvars, self.nvars), dtype=np.intp)
        for a in range(self.nvars):
            for b in range(self.nvars):
                idx = [0] * self.nvars
                idx[a] += 1
                idx[b] += 1
                pos[a, b] = self.position[tuple(idx)]
        return pos

    @cached_property
    def second_partials(self) -> tuple:
        """(src, scale1, scale2), each (nvars, nvars, ncoef two orders
        lower): coef[src[v, w]] * scale1[v, w] * scale2[v, w] is the
        coefficient array of the second partial along v and w, the
        derivative along min(v, w) taken first and rounded first, so
        all second-partial jets of a jet are one gather."""
        if self.order < 2:
            raise JetOrderError("second partials need a jet of order 2 or more")
        lower = jet_space(self.nvars, self.order - 1)
        v, w = np.indices((self.nvars, self.nvars))
        first, then = np.minimum(v, w), np.maximum(v, w)
        inner = lower._deriv_src[then]
        src = self._deriv_src[first[..., None], inner]
        scale1 = self._deriv_scale[first[..., None], inner]
        return src, scale1, lower._deriv_scale[then]

    def constant(self, value: float) -> "Jet":
        coef = np.zeros(self.ncoef)
        coef[0] = float(value)
        return Jet(self, coef)

    def variable(self, v: int, value) -> "Jet":
        """Coordinate function x_v seeded at the given value, a float, or
        at each value of an array, a batch of seeds."""
        if not 0 <= v < self.nvars:
            raise ValueError(f"variable index {v} out of range")
        value = np.asarray(value, dtype=float)
        coef = np.zeros(value.shape + (self.ncoef,))
        coef[..., 0] = value
        if self.order >= 1:
            # the degree-1 block is e_0, e_1, ... in order
            coef[..., 1 + v] = 1.0
        return _Seed(self, coef, v)

    def seed(self, values) -> list["Jet"]:
        """The seeds of the variables at a point, values (nvars,), or of
        a block of points, values (P, nvars), each seed then a batch of
        P jets."""
        values = np.asarray(values, dtype=float)
        return [self.variable(v, values[..., v]) for v in range(values.shape[-1])]


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class Jet:
    """A jet, coef (ncoef,), or a batch of jets, coef (..., ncoef).
    Sums, products (seed products included), powers, quotients and the
    analytic functions act row by row, each row with the bits it gets as
    a jet alone; a batch of one row takes one jet's path, at one jet's
    cost.  A product of a jet with a batch gives a batch only through a
    seed or a scalar.  value and partial read one jet."""

    __slots__ = ("space", "coef")

    def __init__(self, space: JetSpace, coef: np.ndarray):
        self.space = space
        self.coef = coef

    # -- basic accessors ------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coef[0])

    def partial(self, idx) -> float:
        """Partial derivative D^idx f, idx a multi-index tuple."""
        idx = tuple(int(e) for e in idx)
        if len(idx) != self.space.nvars:
            raise ValueError("multi-index length does not match variable count")
        if any(e < 0 for e in idx):
            raise ValueError("multi-index entries must be nonnegative")
        if sum(idx) > self.space.order:
            raise JetOrderError(
                f"degree {sum(idx)} exceeds jet order {self.space.order}"
            )
        p = self.space.position[idx]
        return float(self.coef[p] * self.space.factorial[p])

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces cannot be combined")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return None  # scalar fast path
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            coef = self.coef.copy()
            coef[..., 0] += other
            return Jet(self.space, coef)
        return Jet(self.space, self.coef + o.coef)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            coef = self.coef.copy()
            coef[..., 0] -= other
            return Jet(self.space, coef)
        return Jet(self.space, self.coef - o.coef)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.space, -self.coef)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet(self.space, self.coef * other)
        if isinstance(o, _Seed):
            return self._times_seed(o)
        if isinstance(self, _Seed):
            return o._times_seed(self)
        return Jet(self.space, _triples(self.space, self.coef, o.coef))

    __rmul__ = __mul__

    def _times_seed(self, seed: "_Seed") -> "Jet":
        """self * seed: self scaled by the seed's value, plus self shifted
        up by the seed's variable, row by row when either is a batch.
        Bit for bit the bincount product of finite jets: a coefficient is
        a sum of at most two nonzero terms, which rounds the same in
        either order, and the + 0.0 turns a -0.0 into the +0.0 that
        bincount's sum starts from."""
        s = self.space
        coef = self.coef * seed.coef[..., :1] + 0.0
        if s.order:
            src = s._deriv_src[seed.var]
            coef[..., src] += self.coef[..., : len(src)]
        return Jet(s, coef)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if other == 0:
                raise ZeroDivisionError("jet divided by zero scalar")
            return Jet(self.space, self.coef / other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self.reciprocal() * other
        return NotImplemented

    def __pow__(self, p):
        if not isinstance(p, (int, np.integer)):
            return NotImplemented
        p = int(p)
        if p < 0:
            return self.reciprocal() ** (-p)
        # the constant 1, one row per jet of a batch
        one = np.broadcast_to(self.space.constant(1.0).coef, self.coef.shape)
        result = Jet(self.space, one.copy())
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base if p > 1 else base
            p >>= 1
        return result

    # -- analytic functions ----------------------------------------------

    def _compose(self, dcoefs) -> "Jet":
        """Evaluate sum_k dcoefs[k] * (self - value)^k, k = 0..K, by
        Horner, K the order of the space; dcoefs[k] is a float or one
        value per jet of a batch.

        e = self - value has no constant term, so the Horner step that
        adds dcoefs[k] feeds only the output degrees <= K - k: each step
        multiplies over the prefix of the triple table that reaches
        those degrees.  The first step, a constant times e, is a scalar
        multiply.  For finite jets the bits are those of the full
        products: a dropped term only ever met the zero constant
        coefficient of e.
        """
        s = self.space
        K = s.order
        if not K:
            return Jet(s, np.full(self.coef.shape, np.asarray(dcoefs[0])[..., None]))
        e = self.coef.copy()
        e[..., 0] = 0.0
        r = np.asarray(dcoefs[K])[..., None] * e + 0.0
        r[..., 0] += dcoefs[K - 1]
        for k in range(K - 2, -1, -1):
            t = s._triple_ends[K - k]
            r = _triples(s, r, e, t)
            r[..., 0] += dcoefs[k]
        return Jet(s, r)

    def reciprocal(self) -> "Jet":
        # np.float_power rounds each power as Python's float ** does
        u0 = self.coef[..., 0]
        if np.any(u0 == 0.0):
            raise JetDomainError("division by a jet with zero base value")
        K = self.space.order
        dcoefs = [(-1.0) ** k / np.float_power(u0, k + 1) for k in range(K + 1)]
        return self._compose(dcoefs)

    def _series(self, taylor, *args) -> "Jet":
        """The function whose Taylor coefficients at a value u0 are
        taylor(u0, K, *args), K + 1 floats (K the order), composed with
        the jet.  taylor runs with math on each row's value as a Python
        float, one row at a time, so that a row of a batch has the
        coefficients it has alone: numpy's vector loops may round a libm
        function differently.  One jet, or a batch of one row, makes one
        call and composes with its floats."""
        K = self.space.order
        u0 = self.coef[..., 0]
        if u0.size == 1:
            return self._compose(taylor(u0.item(), K, *args))
        rows = [taylor(v, K, *args) for v in u0.ravel().tolist()]
        return self._compose([np.reshape(c, u0.shape) for c in zip(*rows)])

    def log(self) -> "Jet":
        return self._series(_log_series)

    def sqrt(self) -> "Jet":
        return self._series(_sqrt_series)

    def exp(self) -> "Jet":
        return self._series(_exp_series)

    def sin(self) -> "Jet":
        return self._series(_trig_series, 0)

    def cos(self) -> "Jet":
        return self._series(_trig_series, 1)

    def __repr__(self):
        lead = self.coef.shape[:-1]
        what = f"batch={lead}" if lead else f"value={self.value}"
        return f"Jet(nvars={self.space.nvars}, order={self.space.order}, {what})"


# The Taylor coefficients (u0, K) -> [f(u0), f'(u0), f''(u0) / 2, ...] of
# the analytic functions, to order K, for Jet._series

def _log_series(u0, K):
    if u0 <= 0.0:
        raise JetDomainError(f"log of nonpositive base value {u0}")
    return [math.log(u0)] + [(-1.0) ** (k + 1) / (k * u0**k)
                             for k in range(1, K + 1)]


def _sqrt_series(u0, K):
    if u0 <= 0.0:
        raise JetDomainError(f"sqrt of nonpositive base value {u0}")
    dcoefs, binom = [], 1.0
    for k in range(K + 1):
        dcoefs.append(binom * u0 ** (0.5 - k))
        binom *= (0.5 - k) / (k + 1)
    return dcoefs


def _exp_series(u0, K):
    try:
        e0 = math.exp(u0)
    except OverflowError:
        raise JetDomainError(f"exp of base value {u0} overflows") from None
    return [e0 / math.factorial(k) for k in range(K + 1)]


def _trig_series(u0, K, shift):
    """sin's coefficients, or with shift 1 cos's, its derivative's."""
    try:
        cycle = [math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)]
    except ValueError:   # an infinite value
        raise JetDomainError(f"sin or cos of infinite base value {u0}") from None
    return [cycle[(k + shift) % 4] / math.factorial(k) for k in range(K + 1)]


class _Seed(Jet):
    """The coordinate jet x_var at a value, as JetSpace.variable seeds
    it: a product with it is a shift, not a bincount."""

    __slots__ = ("var",)

    def __init__(self, space: JetSpace, coef: np.ndarray, var: int):
        super().__init__(space, coef)
        self.var = var


class _RankPlan(NamedTuple):
    """A prefix of the triple table, rank by rank: the rank g triples
    are the g-th (i, j) of each k-group, and within a rank the outputs
    go by group size, largest first, so that each rank's outputs are a
    prefix of that order."""

    i: np.ndarray       # the triples' first factors, rank after rank
    j: np.ndarray       # their second factors
    ends: list          # where each rank's triples end in i and j
    back: np.ndarray    # output k sits at back[k] of the size order


def _bincount(space: JetSpace, a: np.ndarray, b: np.ndarray, t: int):
    mi, mj, mk = space._prefixes[t]
    return np.bincount(mk, weights=a[mi] * b[mj], minlength=space.ncoef)


def _triples(space: JetSpace, a: np.ndarray, b: np.ndarray, t=None):
    """The products a * b of coefficient arrays of one shape, (ncoef,)
    or a batch (..., ncoef), over the first t triples of the table (all
    by default, else an entry of _triple_ends).

    One jet, or a batch of one row, is one bincount, which adds each
    coefficient's terms in their (i, j) order, starting from +0.0.  A
    longer batch goes in blocks of rows whose products fit
    _PRODUCT_BYTES: per block, one gather-multiply of a_i b_j,
    coefficients first, in the order of the table's _RankPlan, then one
    slice add per rank into zeros (16 at order 4), then the outputs back
    in place.  Every coefficient adds the bincount's products in the
    bincount's order from +0.0, so each row has its bits, signed zeros,
    infinities and NaN included (but for the sign of a NaN met by a NaN
    of the other sign, which numpy's loops take from either operand by
    lane).  A block of one row is a bincount.
    """
    nc = space.ncoef
    t = len(space._mk) if t is None else t
    if a.size == nc:
        return _bincount(space, a.reshape(nc), b.reshape(nc), t).reshape(a.shape)
    a, b, shape = a.reshape(-1, nc), b.reshape(-1, nc), a.shape
    out = np.empty(a.shape)
    step = max(1, _PRODUCT_BYTES // (8 * t))
    for r in range(0, len(a), step):
        u, v = a[r:r + step], b[r:r + step]
        if len(u) == 1:
            out[r] = _bincount(space, u[0], v[0], t)
            continue
        plan = space.rank_plan(t)
        prod = np.take(u.T, plan.i, axis=0)
        prod *= np.take(v.T, plan.j, axis=0)
        acc = np.zeros((nc, len(u)))
        lo = 0
        for hi in plan.ends:
            acc[:hi - lo] += prod[lo:hi]
            lo = hi
        out[r:r + step] = np.take(acc, plan.back, axis=0).T
    return out.reshape(shape)


# -- small dense linear algebra over the jet ring -------------------------


def _scatter(space: JetSpace, prod: np.ndarray) -> np.ndarray:
    """Sum products (..., T) over the triple table into coefficient
    arrays (..., ncoef): every coefficient has a triple (0, k), so each
    group of the k-sorted table is one non-empty reduceat segment."""
    return np.add.reduceat(prod, space._k_starts, axis=-1)


def graded_solve(space: JetSpace, A: np.ndarray, rhs=None):
    """Solve A X = rhs over the jet ring and take log det A, for a batch
    of jet matrices at once.

    A is a (..., n, n, ncoef) array of coefficient arrays of the space,
    rhs a (..., n, ncoef) array or None; the leading axes are a batch,
    and each matrix gets the bits it would get alone.  With A0 the
    float matrix of base values and E = A0^-1 (A - A0), E has no
    constant term, so E^k vanishes for k > K, the space's order, and in
    truncated arithmetic exactly

        A^-1 = sum_{k=0..K} (-E)^k A0^-1,
        log det A = log det A0 + sum_{k=1..K} (-1)^(k+1) tr(E^k) / k.

    One inverse of A0 gives E and X0 = A0^-1 rhs as separate products,
    so log det A has the same bits with or without rhs.  The solution is
    X0 - E(X0 - E(X0 - ...)), K jet mat-vecs, each one einsum over the
    triple table and one scatter; tr(E^k) needs only the trace of the
    last product.  Returns (X, log det A), X None without rhs.  A base
    determinant that is not positive and finite raises JetDomainError.
    """
    A0 = A[..., 0]
    sign, log_det0 = np.linalg.slogdet(A0)
    if not (np.all(sign > 0.0) and np.all(np.isfinite(log_det0))):
        raise JetDomainError(
            "jet matrix whose base value has no positive finite determinant")
    inv = np.linalg.inv(A0)
    E = A.copy()
    E[..., 0] = 0.0
    E = (inv @ E.reshape(A.shape[:-2] + (A.shape[-2] * A.shape[-1],))
         ).reshape(A.shape)
    Ei, Ej = E[..., space._mi], E[..., space._mj]
    log_det = np.einsum("...iit->...t", E)
    log_det[..., 0] = log_det0
    power_i = Ei  # E^(k-1), gathered along the triple table's first index
    for k in range(2, space.order + 1):
        # tr(E^k) = sum_ij (E^(k-1))_ij E_ji, without forming E^k
        trace = _scatter(space, np.einsum("...ijt,...jit->...t", power_i, Ej))
        log_det += trace * ((-1.0) ** (k + 1) / k)
        if k < space.order:
            power = _scatter(
                space, np.einsum("...ijt,...jlt->...ilt", power_i, Ej))
            power_i = power[..., space._mi]
    if rhs is None:
        return None, log_det
    del Ej, power_i  # the solution's steps read Ei alone
    X0 = inv @ rhs
    X = X0
    for _ in range(space.order):
        X = X0 - _scatter(space, np.einsum("...ijt,...jt->...it", Ei,
                                           X[..., space._mj]))
    return X, log_det

