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
is a scaled copy plus a shift instead, with the same bits.

Jet matrices are eliminated in one place, ``jet_solve``: Gauss-Jordan
with pivots chosen by base value.  It returns the determinant with the
solution, as the signed product of its pivots, so a matrix that needs
both is eliminated once.
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
        ii, jj, kk = [], [], []
        for i, mu in enumerate(self.indices):
            dmu = sum(mu)
            for j, nu in enumerate(self.indices):
                if dmu + sum(nu) > self.order:
                    continue
                gamma = tuple(a + b for a, b in zip(mu, nu))
                ii.append(i)
                jj.append(j)
                kk.append(self.position[gamma])
        self._mi = np.array(ii, dtype=np.intp)
        self._mj = np.array(jj, dtype=np.intp)
        self._mk = np.array(kk, dtype=np.intp)

    def _build_deriv_maps(self):
        # deriv along v maps this space onto jet_space(nvars, order - 1):
        # coef'[pos(g)] = coef[pos(g + e_v)] * (g_v + 1)
        self._deriv_src = []
        self._deriv_scale = []
        if self.order == 0:
            return
        lower = _graded_indices(self.nvars, self.order - 1)
        for v in range(self.nvars):
            src = np.empty(len(lower), dtype=np.intp)
            scale = np.empty(len(lower), dtype=float)
            for t, gamma in enumerate(lower):
                bumped = tuple(
                    e + 1 if w == v else e for w, e in enumerate(gamma)
                )
                src[t] = self.position[bumped]
                scale[t] = gamma[v] + 1.0
            self._deriv_src.append(src)
            self._deriv_scale.append(scale)

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
            unit = tuple(1 if w == v else 0 for w in range(self.nvars))
            coef[self.position[unit]] = 1.0
        return _Seed(self, coef, v)

    def seed(self, values) -> list["Jet"]:
        return [self.variable(v, val) for v, val in enumerate(values)]


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class Jet:
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

    def gradient(self) -> np.ndarray:
        """All first partials as a vector."""
        if self.space.order < 1:
            raise JetOrderError("order-0 jet has no first derivatives")
        return self.coef[1 : 1 + self.space.nvars].copy()

    def deriv(self, v: int) -> "Jet":
        """The partial derivative along variable v, as a jet one order lower."""
        if self.space.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        lower = jet_space(self.space.nvars, self.space.order - 1)
        coef = self.coef[self.space._deriv_src[v]] * self.space._deriv_scale[v]
        return Jet(lower, coef)

    def truncate(self, order: int) -> "Jet":
        if order > self.space.order:
            raise JetOrderError("cannot truncate upward")
        if order == self.space.order:
            return self
        lower = jet_space(self.space.nvars, order)
        return Jet(lower, self.coef[: lower.ncoef].copy())

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
            coef[0] += other
            return Jet(self.space, coef)
        return Jet(self.space, self.coef + o.coef)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            coef = self.coef.copy()
            coef[0] -= other
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
        s = self.space
        prod = self.coef[s._mi] * o.coef[s._mj]
        return Jet(s, np.bincount(s._mk, weights=prod, minlength=s.ncoef))

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
        """Evaluate sum_k dcoefs[k] * (self - value)^k by Horner."""
        e = Jet(self.space, self.coef.copy())
        e.coef[0] = 0.0
        r = self.space.constant(dcoefs[-1])
        for k in range(len(dcoefs) - 2, -1, -1):
            r = r * e + dcoefs[k]
        return r

    def reciprocal(self) -> "Jet":
        u0 = self.value
        if u0 == 0.0:
            raise JetDomainError("division by a jet with zero base value")
        K = self.space.order
        dcoefs = [(-1.0) ** k / u0 ** (k + 1) for k in range(K + 1)]
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


# -- small dense linear algebra over the jet ring -------------------------


def jet_solve(A, rhs):
    """Solve A u = rhs over the jet ring by Gauss-Jordan elimination.

    A is an n x n nested list of jets, rhs a length-n list of jets, or
    empty to ask for the determinant alone.  Pivots are chosen by largest
    base value; a zero pivot raises JetDomainError.  Returns (u, det A),
    det A being the product of the final pivots, negated once per row
    swap.
    """
    n = len(A)
    M = [row[:] for row in A]
    b = rhs[:]
    inv_pivs = []
    sign = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col].value))
        if M[piv][col].value == 0.0:
            raise JetDomainError("singular jet matrix (zero pivot base value)")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
            if b:
                b[col], b[piv] = b[piv], b[col]
        inv_piv = M[col][col].reciprocal()
        inv_pivs.append(inv_piv)
        for r in range(n):
            if r == col:
                continue
            factor = M[r][col] * inv_piv
            for c in range(col, n):
                M[r][c] = M[r][c] - factor * M[col][c]
            if b:
                b[r] = b[r] - factor * b[col]
    # row col is final once its column is eliminated, so M[i][i] is the
    # final pivot of row i and inv_pivs[i] its reciprocal
    det = M[0][0]
    for i in range(1, n):
        det = det * M[i][i]
    return [b[i] * inv_pivs[i] for i in range(len(b))], det * sign
