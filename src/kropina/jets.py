"""Dense truncated multivariate Taylor arithmetic ("jets").

A jet holds the value and all partial derivatives of a smooth function up
to a fixed total order K at one point, stored as Taylor coefficients
c_mu = D^mu f / mu! over a graded-lexicographic multi-index basis.  All
ring operations are exact truncated-series arithmetic: the only error in
any derivative extracted from a jet is floating-point roundoff, never a
truncation-order error.

Multiplication uses a precomputed triple table (i, j, k) with
idx[i] + idx[j] = idx[k] and a single ``np.bincount`` per product, which
keeps the n = 4, K = 4 case (495 coefficients) in the tens of
microseconds.  A product with a coordinate seed (``JetSpace.variable``)
is a scaled copy plus a shift instead, with the same bits.  The analytic
functions (reciprocal, log, exp, sqrt, sin, cos) sum their power series
in the jet's non-constant part by Horner, each step multiplying only up
to the degree that the remaining steps keep (truncated Taylor
arithmetic; Griewank and Walther, Evaluating Derivatives, 2008, ch. 13).

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

import numpy as np

MAX_ORDER = 4


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
        # their triples are a prefix of the k-sorted table
        degree_ends = np.searchsorted(deg, np.arange(self.order + 1),
                                      side="right")
        self._triple_ends = np.searchsorted(self._mk, degree_ends).tolist()

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

    def variable(self, v: int, value: float) -> "Jet":
        """Coordinate function x_v seeded at the given value."""
        if not 0 <= v < self.nvars:
            raise ValueError(f"variable index {v} out of range")
        coef = np.zeros(self.ncoef)
        coef[0] = float(value)
        if self.order >= 1:
            coef[1 + v] = 1.0  # the degree-1 block is e_0, e_1, ... in order
        return _Seed(self, coef, v)

    def seed(self, values) -> list["Jet"]:
        return [self.variable(v, val) for v, val in enumerate(values)]


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class Jet:
    """A jet, coef (ncoef,), or a batch of jets, coef (..., ncoef), whose
    sums, products, reciprocal and quotients act row by row with each
    row's own bits; value, partial and the other series take one jet."""

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
        up by the seed's variable.  Bit for bit the bincount product of
        finite jets: a coefficient is a sum of at most two nonzero terms,
        which rounds the same in either order, and the + 0.0 turns a -0.0
        into the +0.0 that bincount's sum starts from."""
        s = self.space
        coef = self.coef * seed.coef[0] + 0.0
        if s.order:
            src = s._deriv_src[seed.var]
            coef[src] += self.coef[: len(src)]
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
        result = self.space.constant(1.0)
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
            return Jet(s, np.array(dcoefs[0], dtype=float)[..., None])
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

    def log(self) -> "Jet":
        u0 = self.value
        if u0 <= 0.0:
            raise JetDomainError(f"log of nonpositive base value {u0}")
        K = self.space.order
        dcoefs = [math.log(u0)]
        dcoefs += [(-1.0) ** (k + 1) / (k * u0**k) for k in range(1, K + 1)]
        return self._compose(dcoefs)

    def sqrt(self) -> "Jet":
        u0 = self.value
        if u0 <= 0.0:
            raise JetDomainError(f"sqrt of nonpositive base value {u0}")
        K = self.space.order
        dcoefs, binom = [], 1.0
        for k in range(K + 1):
            dcoefs.append(binom * u0 ** (0.5 - k))
            binom *= (0.5 - k) / (k + 1)
        return self._compose(dcoefs)

    def exp(self) -> "Jet":
        e0 = math.exp(self.value)
        K = self.space.order
        dcoefs = [e0 / math.factorial(k) for k in range(K + 1)]
        return self._compose(dcoefs)

    def sin(self) -> "Jet":
        u0 = self.value
        cycle = [math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)]
        K = self.space.order
        dcoefs = [cycle[k % 4] / math.factorial(k) for k in range(K + 1)]
        return self._compose(dcoefs)

    def cos(self) -> "Jet":
        u0 = self.value
        cycle = [math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0)]
        K = self.space.order
        dcoefs = [cycle[k % 4] / math.factorial(k) for k in range(K + 1)]
        return self._compose(dcoefs)

    def __repr__(self):
        return f"Jet(nvars={self.space.nvars}, order={self.space.order}, value={self.value})"


class _Seed(Jet):
    """The coordinate jet x_var at a value, as JetSpace.variable seeds
    it: a product with it is a shift, not a bincount."""

    __slots__ = ("var",)

    def __init__(self, space: JetSpace, coef: np.ndarray, var: int):
        super().__init__(space, coef)
        self.var = var


def _triples(space: JetSpace, a: np.ndarray, b: np.ndarray, t=None):
    """The products a * b of coefficient arrays of one shape, (ncoef,)
    or a batch (..., ncoef), over the first t triples of the table (all
    by default): one bincount per jet, which adds its terms in their
    order and keeps its arrays in cache (one bincount over a whole batch
    is no faster, and its arrays are as many times larger)."""
    mi, mj, mk, nc = space._mi[:t], space._mj[:t], space._mk[:t], space.ncoef
    if a.ndim == 1:
        return np.bincount(mk, weights=a[mi] * b[mj], minlength=nc)
    return np.array([_triples(space, u, v, t) for u, v in
                     zip(a.reshape(-1, nc), b.reshape(-1, nc))]).reshape(a.shape)


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
    E = (inv @ E.reshape(A.shape[:-2] + (-1,))).reshape(A.shape)
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

