"""Finite-difference oracle checks against hand-known derivatives."""
import math

import pytest

from fd import fd_partial


def test_first_derivative_sin():
    got = fd_partial(lambda p: math.sin(p[0]), [0.0], (1,), step=1e-3)
    assert abs(got - 1.0) < 1e-9


def test_second_derivative_cubic():
    got = fd_partial(lambda p: p[0] ** 3, [1.0], (2,))
    assert abs(got - 6.0) < 1e-6


def test_mixed_partial_product():
    got = fd_partial(lambda p: p[0] * p[1], [0.3, -0.7], (1, 1))
    assert abs(got - 1.0) < 1e-6


def test_third_derivative():
    # d^3/dx^3 exp(2x) at 0 = 8
    got = fd_partial(lambda p: math.exp(2.0 * p[0]), [0.0], (3,))
    assert abs(got - 8.0) < 1e-6


def test_degree_zero_returns_value():
    assert fd_partial(lambda p: 5.0 + p[0], [2.0], (0,)) == 7.0


def test_degree_cap():
    with pytest.raises(ValueError):
        fd_partial(lambda p: p[0] ** 4, [1.0], (4,))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        fd_partial(lambda p: float("inf"), [0.0], (1,))


def test_length_mismatch():
    with pytest.raises(ValueError):
        fd_partial(lambda p: p[0], [1.0, 2.0], (1,))
