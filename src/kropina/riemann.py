"""Riemannian metric calculus on chart expressions.

Everything at a chart point is driven by jets of the component
expressions: evaluate turns the trees of a metric and any fields into
arrays in one evaluation over the x-jets, partials reads their value and
partials off those arrays, and the tensor algebra proceeds by einsum.

Index conventions of MetricPoint, fixed operationally by the convention
self-test in the test suite:

- christoffel[k, i, j] = Gamma^k_ij
- riemann[k, m, i, j] = R_k^m_ij, the array satisfying the Ricci
  identity  W_{k|i|j} - W_{k|j|i} = W_m R_k^m_ij  for covariant fields
- ricci[k, j] = sum_m R_k^m_mj, positive for round spheres
"""
from __future__ import annotations

import math
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


# Contractions over rows (..., n), each one matmul whose core is the 1-D
# product's: numpy makes per row the BLAS call of 1-D operands, its bits.


def _dot(a, b):
    """a @ b of each pair of rows."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _form(u, M, v):
    """u @ M @ v of each pair of rows."""
    return (u[..., None, :] @ M @ v[..., :, None])[..., 0, 0]


def _apply(M, y):
    """M @ y of each row."""
    return (M @ y[..., :, None])[..., 0]


def evaluate(env, *parts):
    """The arrays of each part over env, from one eval_expr call, so the
    nodes the parts share run once: a RiemannianMetric gives an (n, n)
    array, a sequence of trees an (m,) array and one ExprAst a () array.

    Over a chart point of floats the arrays hold values.  Over jets (the
    seeds of one jet space) they hold each tree's coefficient array on a
    trailing axis, a constant tree's as a constant row.  Over the seeds
    of a block of P chart points (JetSpace.seed) they gain a leading
    axis of the points, and each point's arrays are contiguous, with the
    bits of its own evaluation: the jet arithmetic goes row by row.
    """
    flat, shapes = [], []
    for part in parts:
        if isinstance(part, RiemannianMetric):
            flat += [e for row in part.exprs for e in row]
            shapes.append((part.dim, part.dim))
        elif isinstance(part, ExprAst):
            flat.append(part)
            shapes.append(())
        else:
            flat += part
            shapes.append((len(part),))
    lead = ()
    if isinstance(env[0], Jet):
        space = env[0].space
        lead = env[0].coef.shape[:-1]
        vals = np.zeros(lead + (len(flat), space.ncoef))
        for k, v in enumerate(eval_expr(flat, env)):
            if isinstance(v, Jet):
                vals[..., k, :] = v.coef
            else:
                vals[..., k, 0] = v
        tail = (space.ncoef,)
    else:
        vals = np.array(eval_expr(flat, [float(v) for v in env]), dtype=float)
        tail = ()
    out, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        part = vals[..., at:at + size, :] if tail else vals[at:at + size]
        out.append(part.reshape(lead + shape + tail))
        at += size
    return out


def partials(coef, space):
    """Value, first and (order >= 2) second partials of the coefficient
    arrays coef over space, each shaped like coef without its trailing
    axis and with the derivative axes last.  All three are C-contiguous:
    the einsums over them round differently on strided arrays."""
    n = space.nvars
    res = [coef[..., 0].copy()]
    if space.order >= 1:
        res.append(coef[..., 1:1 + n].copy())
    if space.order >= 2:
        pos = space.hessian_positions
        res.append(np.ascontiguousarray(coef[..., pos] * space.factorial[pos]))
    return res


def require_positive_definite(g):
    """Raise unless each metric value of g, (..., n, n), is positive
    definite, by one batched Cholesky factoring."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "metric is not positive definite at this point"
        ) from None


class MetricPoint:
    """Metric data at one chart point: values, derivatives, curvature."""

    def __init__(self, g, dg=None, d2g=None):
        self.n = g.shape[0]
        self.g = g
        self.dg = dg
        self.d2g = d2g
        require_positive_definite(g)

    @classmethod
    def from_exprs(cls, metric: RiemannianMetric, x, order=2):
        space = jet_space(len(x), order)
        (g,) = evaluate(space.seed(x), metric)
        return cls(*partials(g, space))

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

    @cached_property
    def sksk(self):
        """s^k s_k."""
        return float(self.s_vec @ self.mp.ginv @ self.s_vec)

    @cached_property
    def ss(self):
        """s^j_k s^k_j."""
        return float(np.einsum("ij,ji->", self.s_up, self.s_up))
