"""Riemannian core: charts with known curvature plus convention self-tests.

The index convention of riemann_h is pinned operationally: the Ricci
identity W_{k|i|j} - W_{k|j|i} = W_m R_k^m_ij must hold for arbitrary
fields, and round spheres must come out with positive Ricci curvature.
"""
import math

import numpy as np
import pytest

from kropina.expr import parse_expr
from fd import fd_partial
from kropina.riemann import (
    FieldPoint,
    MetricPoint,
    NotPositiveDefiniteError,
    RiemannianMetric,
)
from oracles import (
    christoffel,
    hess_h,
    lowered_riemann,
    metric_from_strings,
    ricci_h,
    riemann_h,
    second_cov_w,
    w_invariants,
    w_invariants_from_point,
)

EUCLID3 = metric_from_strings(
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
)

# round 2-sphere in colatitude/longitude coordinates
SPHERE2 = metric_from_strings([["1", "0"], ["0", "sin(x1)^2"]])

# unit 3-sphere, torus-fibration chart: diag(1, sin^2 x1, cos^2 x1)
SPHERE3 = metric_from_strings(
    [["1", "0", "0"], ["0", "sin(x1)^2", "0"], ["0", "0", "cos(x1)^2"]]
)
HOPF_W = [parse_expr(e, 3) for e in ("0", "1", "1")]


def _random_metric(rng, n=2):
    """Perturbed flat metric with polynomial and trig entries."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(f"1 + 0.2*sin(x{i + 1})")
            elif i < j:
                row.append(f"0.1*x{i + 1}*x{j + 1}")
            else:
                row.append(f"0.1*x{j + 1}*x{i + 1}")
        rows.append(row)
    # randomize by shifting the evaluation point instead of the text
    return metric_from_strings(rows)


def test_euclidean_flat():
    x = [0.3, -0.2, 0.9]
    assert np.allclose(christoffel(EUCLID3, x), 0.0)
    assert np.allclose(riemann_h(EUCLID3, x), 0.0)
    assert np.allclose(ricci_h(EUCLID3, x), 0.0)


def test_sphere2_christoffel_known_values():
    th = 0.8
    G = christoffel(SPHERE2, [th, 0.4])
    # Gamma^theta_phiphi = -sin th cos th, Gamma^phi_thetaphi = cot th
    assert abs(G[0, 1, 1] + math.sin(th) * math.cos(th)) < 1e-12
    assert abs(G[1, 0, 1] - math.cos(th) / math.sin(th)) < 1e-12
    assert abs(G[1, 1, 0] - math.cos(th) / math.sin(th)) < 1e-12


def test_sphere2_lowered_curvature_equals_det():
    th = 1.1
    mp = MetricPoint.from_exprs(SPHERE2, [th, 0.2])
    low = lowered_riemann(mp)
    det = math.sin(th) ** 2
    # sectional curvature one: contracting with g^{-1} must return Ric = g,
    # which in this storage order puts +det g at [0, 1, 1, 0]
    assert abs(low[1, 1, 0, 1] - 0.0) < 1e-10
    assert abs(low[0, 1, 1, 0] - det) < 1e-10
    assert abs(low[0, 1, 0, 1] + det) < 1e-10


def test_sphere2_ricci_equals_metric():
    x = [0.9, 0.5]
    mp = MetricPoint.from_exprs(SPHERE2, x)
    assert np.allclose(mp.ricci, (2 - 1) * mp.g, atol=1e-10)


def test_sphere3_ricci_is_twice_metric():
    x = [0.7, 0.3, 0.5]
    mp = MetricPoint.from_exprs(SPHERE3, x)
    assert np.allclose(mp.ricci, 2.0 * mp.g, atol=1e-9)


def test_christoffel_against_fd_oracle():
    """Independent route: assemble Gamma from fd derivatives of g."""
    metric = _random_metric(np.random.default_rng(3), 2)
    x = [0.4, -0.6]
    n = 2

    def g_at(p):
        from kropina.expr import eval_expr

        return np.array(
            [[eval_expr(metric.exprs[i][j], list(p)) for j in range(n)] for i in range(n)]
        )

    dg = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                idx = tuple(1 if w == k else 0 for w in range(n))
                dg[i, j, k] = fd_partial(lambda p: g_at(p)[i, j], x, idx)
    ginv = np.linalg.inv(g_at(x))
    want = 0.5 * np.einsum(
        "kl,ijl->kij",
        ginv,
        np.einsum("jli->ijl", dg) + np.einsum("ilj->ijl", dg) - dg,
    )
    got = christoffel(metric, x)
    assert np.allclose(got, want, atol=1e-9)


def test_christoffel_symmetry_random_points():
    metric = _random_metric(np.random.default_rng(5), 3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = list(rng.uniform(-1, 1, size=3))
        G = christoffel(metric, x)
        assert np.allclose(G, np.swapaxes(G, 1, 2), atol=1e-13)


def test_first_bianchi_random_points():
    metric = _random_metric(np.random.default_rng(7), 3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = list(rng.uniform(-1, 1, size=3))
        R = riemann_h(metric, x)
        cyc = (
            R
            + np.einsum("imjk->kmij", R)  # R_i^m_jk placed to cycle (k,i,j)
            + np.einsum("jmki->kmij", R)
        )
        assert np.allclose(cyc, 0.0, atol=1e-9)


def test_lowered_curvature_antisymmetries():
    metric = _random_metric(np.random.default_rng(21), 3)
    x = [0.2, 0.5, -0.3]
    mp = MetricPoint.from_exprs(metric, x)
    low = lowered_riemann(mp)  # R_kmij
    assert np.allclose(low, -np.einsum("mkij->kmij", low), atol=1e-9)
    assert np.allclose(low, -np.einsum("kmji->kmij", low), atol=1e-9)
    assert np.allclose(low, np.einsum("ijkm->kmij", low), atol=1e-9)


def test_metric_compatibility():
    metric = _random_metric(np.random.default_rng(13), 3)
    x = [0.1, -0.4, 0.7]
    mp = MetricPoint.from_exprs(metric, x)
    G = mp.christoffel
    cov_g = (
        mp.dg
        - np.einsum("mik,mj->ijk", G, mp.g)
        - np.einsum("mjk,im->ijk", G, mp.g)
    )
    assert np.allclose(cov_g, 0.0, atol=1e-12)


def test_ricci_identity_fixes_convention():
    """W_{k|i|j} - W_{k|j|i} = W_m R_k^m_ij for a generic field."""
    metric = _random_metric(np.random.default_rng(17), 3)
    w = [parse_expr(e, 3) for e in ("x2*x3", "1 + 0.3*x1", "sin(x2)")]
    x = [0.3, 0.6, -0.2]
    cov2 = second_cov_w(metric, w, x)
    mp = MetricPoint.from_exprs(metric, x)
    fp = FieldPoint.from_exprs(mp, w, x)
    riem = mp.riemann
    lhs = cov2 - np.einsum("kji->kij", cov2)
    rhs = np.einsum("m,kmij->kij", fp.w_low, riem)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_hess_euclidean_quadratic():
    f = parse_expr("0.5*(x1^2 + x2^2 + x3^2)", 3)
    H = hess_h(f, EUCLID3, [0.4, 0.1, -0.9])
    assert np.allclose(H, np.eye(3), atol=1e-13)


def test_hess_linear_on_curved_chart():
    # covariant Hessian of a coordinate function is -Gamma^k_ij dk f
    f = parse_expr("x2", 2)
    x = [0.9, 0.3]
    H = hess_h(f, SPHERE2, x)
    G = christoffel(SPHERE2, x)
    assert np.allclose(H, -G[1], atol=1e-12)


def test_w_invariants_parallel_field():
    w = [parse_expr(e, 3) for e in ("1", "0", "0")]
    inv = w_invariants(EUCLID3, w, [0.5, 0.5, 0.5])
    assert np.allclose(inv.r_ij, 0.0)
    assert np.allclose(inv.s_ij, 0.0)
    assert inv.r_scalar == 0.0


def test_field_point_invariants_match_the_oracle():
    """FieldPoint's cached r, s and their contractions equal the
    from-scratch record bit for bit."""
    x = [0.7, 0.4, 0.9]
    w = [parse_expr(e, 3) for e in ("cos(x2)", "sin(x2)*x3", "0.3*x1")]
    mp = MetricPoint.from_exprs(SPHERE3, x, order=2)
    fp = FieldPoint.from_exprs(mp, w, x, order=1)
    ref = w_invariants_from_point(mp, fp)
    for mine, theirs in (("r", "r_ij"), ("s", "s_ij"), ("s_up", "s_up"),
                         ("s_vec", "s_vec"), ("r_vec", "r_vec"),
                         ("r_scalar", "r_scalar")):
        assert np.array_equal(getattr(fp, mine), getattr(ref, theirs)), mine
    assert fp.r is fp.r
    assert not np.allclose(fp.r, 0.0) and not np.allclose(fp.s, 0.0)


def _lie_derivative_fd(metric, w_exprs, x):
    """(L_W g)_ij via finite differences, an independent Killing oracle."""
    from kropina.expr import eval_expr

    n = metric.dim

    def g_at(p):
        return np.array(
            [[eval_expr(metric.exprs[i][j], list(p)) for j in range(n)] for i in range(n)]
        )

    def w_at(p):
        return np.array([eval_expr(e, list(p)) for e in w_exprs])

    g = g_at(x)
    w = w_at(x)
    dg = np.empty((n, n, n))
    dw = np.empty((n, n))
    for k in range(n):
        idx = tuple(1 if v == k else 0 for v in range(n))
        for i in range(n):
            dw[i, k] = fd_partial(lambda p: w_at(p)[i], x, idx)
            for j in range(n):
                dg[i, j, k] = fd_partial(lambda p: g_at(p)[i, j], x, idx)
    return (
        np.einsum("ijk,k->ij", dg, w)
        + np.einsum("kj,ki->ij", g, dw)
        + np.einsum("ik,kj->ij", g, dw)
    )


def test_hopf_field_is_killing_by_lie_oracle():
    x = [0.7, 0.4, 0.9]
    inv = w_invariants(SPHERE3, HOPF_W, x)
    lie = _lie_derivative_fd(SPHERE3, HOPF_W, x)
    # 2 R_ij is the Lie derivative of the metric along W
    assert np.allclose(2.0 * inv.r_ij, lie, atol=1e-8)
    assert np.allclose(inv.r_ij, 0.0, atol=1e-10)
    assert not np.allclose(inv.s_ij, 0.0)


def test_twist_field_not_killing():
    w = [parse_expr(e, 3) for e in ("cos(x2)", "sin(x2)", "0")]
    x = [0.1, 0.8, -0.5]
    inv = w_invariants(EUCLID3, w, x)
    lie = _lie_derivative_fd(EUCLID3, w, x)
    assert np.allclose(2.0 * inv.r_ij, lie, atol=1e-8)
    assert np.linalg.norm(inv.r_ij) > 0.1


def test_unit_field_gradient_identity():
    """2(R_j + S_j) = d_j ||W||^2 = 0 for unit fields."""
    for metric, w_exprs, x in [
        (SPHERE3, HOPF_W, [0.6, 0.2, 0.4]),
        (
            EUCLID3,
            [parse_expr(e, 3) for e in ("cos(x2)", "sin(x2)", "0")],
            [0.3, 0.5, 0.7],
        ),
    ]:
        inv = w_invariants(metric, w_exprs, x)
        assert np.allclose(inv.r_vec + inv.s_vec, 0.0, atol=1e-10)


def test_skew_trace_identity():
    # S_j W^j = 0 by antisymmetry, any field
    w = [parse_expr(e, 3) for e in ("x2", "1", "x1*x3")]
    metric = _random_metric(np.random.default_rng(31), 3)
    inv = w_invariants(metric, w, [0.2, -0.1, 0.6])
    mp = MetricPoint.from_exprs(metric, [0.2, -0.1, 0.6])
    fp = FieldPoint.from_exprs(mp, w, [0.2, -0.1, 0.6], order=1)
    assert abs(inv.s_vec @ fp.w) < 1e-12


def test_second_cov_of_killing_field_curvature_formula():
    """For a Killing field, W_{k|i|j} = -W_m R_j^m_ki."""
    x = [0.7, 0.4, 0.9]
    cov2 = second_cov_w(SPHERE3, HOPF_W, x)
    mp = MetricPoint.from_exprs(SPHERE3, x)
    fp = FieldPoint.from_exprs(mp, HOPF_W, x)
    rhs = -np.einsum("m,jmki->kij", fp.w_low, mp.riemann)
    assert np.linalg.norm(cov2 - rhs) < 1e-8


def test_not_positive_definite_raises():
    bad = metric_from_strings([["x1", "0"], ["0", "1"]])
    with pytest.raises(NotPositiveDefiniteError):
        MetricPoint.from_exprs(bad, [-1.0, 0.0])


def test_asymmetric_expressions_rejected():
    with pytest.raises(ValueError):
        metric_from_strings([["1", "x1"], ["x2", "1"]])
