"""Riemannian metric calculus on chart expressions.

Everything at a chart point is driven by jets of the component
expressions: the metric and any field are evaluated once as jets over x,
the raw partials are extracted into numpy arrays, and the tensor algebra
proceeds by einsum.

Index conventions of MetricPoint, fixed operationally by the convention
self-test in the test suite:

- christoffel[k, i, j] = Gamma^k_ij
- riemann[k, m, i, j] = R_k^m_ij, the array satisfying the Ricci
  identity  W_{k|i|j} - W_{k|j|i} = W_m R_k^m_ij  for covariant fields
- ricci[k, j] = sum_m R_k^m_mj, positive for round spheres
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import ExprAst, eval_expr
from .jets import Jet, jet_space


class NotPositiveDefiniteError(ValueError):
    """Metric failed the positive-definiteness check at a sample point."""


class SingularMetricError(ValueError):
    """Metric (or fundamental tensor) is numerically singular."""


@dataclass(frozen=True)
class RiemannianMetric:
    """Symmetric matrix of component expressions g_ij(x)."""

    dim: int
    exprs: tuple  # tuple of tuples of ExprAst

    def __post_init__(self):
        if len(self.exprs) != self.dim or any(
            len(row) != self.dim for row in self.exprs
        ):
            raise ValueError("metric expression matrix has wrong shape")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.exprs[i][j].root != self.exprs[j][i].root:
                    raise ValueError(
                        f"metric expressions not symmetric at ({i + 1},{j + 1})"
                    )


def eval_component_jets(exprs, x, order):
    """Evaluate a nested structure of ExprAst over x-jets, in one call.

    Returns a matching nested list of jets.  Constant expressions come
    back as floats from eval_expr and are lifted to constant jets here.
    """
    space = jet_space(len(x), order)
    if isinstance(exprs, ExprAst):
        return eval_component_jets([exprs], x, order)[0]
    nested = isinstance(exprs[0], (list, tuple))
    flat = [e for row in exprs for e in row] if nested else exprs
    jets = [v if isinstance(v, Jet) else space.constant(v)
            for v in eval_expr(flat, space.seed(x))]
    if not nested:
        return jets
    m = len(exprs[0])
    return [jets[i:i + m] for i in range(0, len(jets), m)]


def _extract(jets, n, order):
    """Value, first and (order >= 2) second partial arrays of a jet, a
    list of jets or a matrix of jets over n variables, each shaped like
    the structure with the derivative axes last.  One gather of the
    stacked coefficients fills each array; all three are C-contiguous."""
    shape, flat = (), [jets]
    while not isinstance(flat[0], Jet):
        shape += (len(flat[0]),)
        flat = [j for part in flat for j in part]
    coef = np.array([j.coef for j in flat])
    res = [coef[:, 0].copy().reshape(shape)]
    if order >= 1:
        res.append(coef[:, 1:1 + n].copy().reshape(shape + (n,)))
    if order >= 2:
        sp = flat[0].space
        pos = sp.hessian_positions
        d2 = coef[:, pos] * sp.factorial[pos]
        res.append(np.ascontiguousarray(d2.reshape(shape + (n, n))))
    return res


class MetricPoint:
    """Metric data at one chart point: values, derivatives, curvature."""

    def __init__(self, g, dg=None, d2g=None):
        self.n = g.shape[0]
        self.g = g
        self.dg = dg
        self.d2g = d2g
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "metric is not positive definite at this point"
            ) from None

    @classmethod
    def from_exprs(cls, metric: RiemannianMetric, x, order=2):
        jets = eval_component_jets(metric.exprs, x, order)
        parts = _extract(jets, len(x), order)
        return cls(*parts)

    @cached_property
    def ginv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dginv(self):
        # d(g^-1)_k = -g^-1 dg_k g^-1
        return -np.einsum("ia,abk,bj->ijk", self.ginv, self.dg, self.ginv)

    @cached_property
    def christoffel(self):
        """Gamma[k, i, j] = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
        dg = self.dg
        return 0.5 * np.einsum(
            "kl,ijl->kij",
            self.ginv,
            np.einsum("jli->ijl", dg) + np.einsum("ilj->ijl", dg) - dg,
        )

    @cached_property
    def dchristoffel(self):
        """dGamma[k, i, j, m] = d_m Gamma^k_ij."""
        dg, d2g = self.dg, self.d2g
        inner = (
            np.einsum("jlim->ijlm", d2g)
            + np.einsum("iljm->ijlm", d2g)
            - np.einsum("ijlm->ijlm", d2g)
        )
        term1 = 0.5 * np.einsum("klm,ijl->kijm", self.dginv,
                                np.einsum("jli->ijl", dg) + np.einsum("ilj->ijl", dg) - dg)
        term2 = 0.5 * np.einsum("kl,ijlm->kijm", self.ginv, inner)
        return term1 + term2

    @cached_property
    def riemann(self):
        """Riem[k, m, i, j] = R_k^m_ij (see module docstring)."""
        G, dG = self.christoffel, self.dchristoffel
        out = (
            np.einsum("mjki->kmij", dG)
            - np.einsum("mikj->kmij", dG)
            + np.einsum("mip,pjk->kmij", G, G)
            - np.einsum("mjp,pik->kmij", G, G)
        )
        return out

    @cached_property
    def ricci(self):
        return np.einsum("kmmj->kj", self.riemann)

    def covariant_hessian(self, df, d2f):
        """f_{i|j} = d_i d_j f - Gamma^m_ij d_m f from plain partials."""
        return d2f - np.einsum("mij,m->ij", self.christoffel, df)


class FieldPoint:
    """A vector field W^i at a point, with covariant derivative data."""

    def __init__(self, mp: MetricPoint, w, dw=None, d2w=None):
        self.mp = mp
        self.w = w
        self.dw = dw
        self.d2w = d2w

    @classmethod
    def from_exprs(cls, mp: MetricPoint, w_exprs, x, order=2):
        jets = eval_component_jets(list(w_exprs), x, order)
        parts = _extract(jets, len(x), order)
        return cls(mp, *parts)

    @cached_property
    def w_low(self):
        return self.mp.g @ self.w

    @cached_property
    def dw_low(self):
        # d_k (g_ij W^j)
        return np.einsum("ijk,j->ik", self.mp.dg, self.w) + np.einsum(
            "ij,jk->ik", self.mp.g, self.dw
        )

    @cached_property
    def d2w_low(self):
        g, dg, d2g = self.mp.g, self.mp.dg, self.mp.d2g
        return (
            np.einsum("ijkl,j->ikl", d2g, self.w)
            + np.einsum("ijk,jl->ikl", dg, self.dw)
            + np.einsum("ijl,jk->ikl", dg, self.dw)
            + np.einsum("ij,jkl->ikl", g, self.d2w)
        )

    @cached_property
    def cov1(self):
        """cov1[i, k] = W_{i|k} (lowered field, Levi-Civita connection)."""
        return self.dw_low - np.einsum(
            "mik,m->ik", self.mp.christoffel, self.w_low
        )

    @cached_property
    def cov2(self):
        """cov2[k, i, j] = W_{k|i|j} = (W_{k|i})_{|j}."""
        G, dG = self.mp.christoffel, self.mp.dchristoffel
        dcov1 = (
            self.d2w_low
            - np.einsum("mkij,m->kij", dG, self.w_low)
            - np.einsum("mki,mj->kij", G, self.dw_low)
        )
        return (
            dcov1
            - np.einsum("mkj,mi->kij", G, self.cov1)
            - np.einsum("mij,km->kij", G, self.cov1)
        )

    # the symmetrised and antisymmetrised covariant derivatives of the
    # lowered field and their contractions, as for any field over g

    @cached_property
    def r(self):
        """r_ij = 1/2 (W_{i|j} + W_{j|i})."""
        return 0.5 * (self.cov1 + self.cov1.T)

    @cached_property
    def s(self):
        """s_ij = 1/2 (W_{i|j} - W_{j|i})."""
        return 0.5 * (self.cov1 - self.cov1.T)

    @cached_property
    def s_up(self):
        """s^i_j = g^ik s_kj."""
        return self.mp.ginv @ self.s

    @cached_property
    def s_vec(self):
        """s_j = W^i s_ij."""
        return self.w @ self.s

    @cached_property
    def r_vec(self):
        """r_j = W^i r_ij."""
        return self.w @ self.r

    @cached_property
    def r_scalar(self):
        """r_j W^j."""
        return float(self.r_vec @ self.w)
