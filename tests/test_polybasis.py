import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcekit import polybasis
from pcekit.errors import ConfigurationError
from pcekit.polybasis import legendre_table
from references import legendre_eval


def test_degree_zero_is_one_everywhere():
    assert legendre_eval(0, 0.37) == 1.0
    assert legendre_eval(0, -0.999) == 1.0


@pytest.mark.parametrize("n", range(11))
def test_value_at_one_is_one(n):
    assert legendre_eval(n, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_degree_three_hand_expansion():
    # (5 x^3 - 3 x) / 2 at x = 0.5 -> (0.625 - 1.5) / 2 = -0.4375
    assert legendre_eval(3, 0.5) == pytest.approx(-0.4375, abs=1e-15)


def test_cross_term_orthogonality_via_quadrature():
    # independent rule: numpy's Gauss-Legendre
    x, w = np.polynomial.legendre.leggauss(10)
    cross = np.sum(legendre_eval(1, x) * legendre_eval(2, x) * 0.5 * w)
    assert abs(cross) < 1e-12


def test_orthogonality_matrix():
    x, w = np.polynomial.legendre.leggauss(10)
    for i in range(9):
        for j in range(9):
            value = np.sum(legendre_eval(i, x) * legendre_eval(j, x) * 0.5 * w)
            expected = 1.0 / (2 * i + 1) if i == j else 0.0
            assert abs(value - expected) < 1e-12, (i, j)


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_recurrence_consistency(n, x):
    residual = (
        (n + 1) * legendre_eval(n + 1, x)
        - (2 * n + 1) * x * legendre_eval(n, x)
        + n * legendre_eval(n - 1, x)
    )
    assert abs(residual) < 1e-12


@given(
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_parity(n, x):
    assert legendre_eval(n, -x) == pytest.approx(
        (-1.0) ** n * legendre_eval(n, x), abs=1e-13
    )


def test_table_matches_scalar_evaluation():
    x = np.linspace(-1, 1, 17)
    table = legendre_table(6, x)
    assert table.shape == (7, 17)  # degree-major
    for n in range(7):
        assert np.allclose(table[n], legendre_eval(n, x), atol=1e-14)


def test_degree_guards(monkeypatch):
    with pytest.raises(ConfigurationError):
        legendre_eval(-1, 0.0)
    with pytest.raises(ConfigurationError):
        legendre_eval(65, 0.0)
    assert legendre_eval(65, 1.0, degree_cap=70) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError, match=">= 0"):
        legendre_table(-1, 0.0)
    with pytest.raises(ConfigurationError, match="65 exceeds the cap of 64"):
        legendre_table(65, 0.0)
    monkeypatch.setattr(polybasis, "DEGREE_CAP", 70)
    assert legendre_table(65, 1.0)[65] == pytest.approx(1.0)
