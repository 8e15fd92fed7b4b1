import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import lagflow.allen_cahn
import lagflow.wgf1d
from lagflow.banded import solve_banded


def random_system(n, l_and_u, seed, shift, nrhs):
    """Bands of standard normals, the diagonal moved by ``shift``; one or two right-hand sides."""
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((sum(l_and_u) + 1, n))
    ab[l_and_u[1]] += shift
    b = rng.standard_normal(n if nrhs == 1 else (n, nrhs))
    return ab, b


def outcome(solve, l_and_u, ab, b, overwrite_ab):
    try:
        return solve(l_and_u, ab, b, overwrite_ab=overwrite_ab)
    except np.linalg.LinAlgError:
        return "singular"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 2000), l_and_u=st.sampled_from([(1, 1), (2, 2)]),
       seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-4.0, 8.0),
       nrhs=st.integers(1, 2), overwrite_ab=st.booleans())
def test_matches_scipy_bit_for_bit(n, l_and_u, seed, shift, nrhs, overwrite_ab):
    check_matches_scipy(n, l_and_u, seed, shift, nrhs, overwrite_ab)


def check_matches_scipy(n, l_and_u, seed, shift, nrhs, overwrite_ab):
    ab, b = random_system(n, l_and_u, seed, shift, nrhs)
    ab_scipy, ab_ours, b_ours = ab.copy(), ab.copy(), b.copy()
    want = outcome(scipy.linalg.solve_banded, l_and_u, ab_scipy, b, overwrite_ab)
    got = outcome(solve_banded, l_and_u, ab_ours, b_ours, overwrite_ab)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
    # b is never written; ab only as scipy writes it
    assert np.array_equal(b_ours, b)
    assert np.array_equal(ab_ours, ab_scipy)
    if not overwrite_ab:
        assert np.array_equal(ab_ours, ab)


@pytest.mark.parametrize("l_and_u", [(1, 1), (2, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["ab", "b"])
def test_non_finite_input_raises_value_error(l_and_u, bad, where):
    ab, b = random_system(12, l_and_u, 3, 6.0, 1)
    (ab if where == "ab" else b)[..., 5] = bad
    with pytest.raises(ValueError):
        solve_banded(l_and_u, ab, b)


# the arguments the 1D solvers pass: a fresh float64 C-ordered ab they let the
# solve overwrite, and a 1-D float64 b
@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 2000), l_and_u=st.sampled_from([(1, 1), (2, 2)]),
       seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-4.0, 8.0))
def test_solver_argument_forms_match_scipy_bit_for_bit(n, l_and_u, seed, shift):
    check_matches_scipy(n, l_and_u, seed, shift, 1, True)


@pytest.mark.parametrize("l_and_u, where", [((1, 1), k) for k in (0, 1, 2, "b")]
                         + [((2, 2), k) for k in (0, 1, 2, 3, 4, "b")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 5, -1])
def test_non_finite_entry_of_a_solver_argument_raises_value_error(l_and_u, where, bad, column):
    # in every band, the corners that hold no matrix entry included, and in b,
    # as scipy's check_finite refuses them
    ab, b = random_system(12, l_and_u, 3, 6.0, 1)
    if where == "b":
        b[column] = bad
    else:
        ab[where, column] = bad
    b_before = b.copy()
    for solve in (scipy.linalg.solve_banded, solve_banded):
        with pytest.raises(ValueError):
            solve(l_and_u, ab.copy(), b, overwrite_ab=True)
    assert np.array_equal(b, b_before, equal_nan=True)


@pytest.mark.parametrize("l_and_u", [(1, 1), (2, 2)])
def test_singular_matrix_raises_lin_alg_error(l_and_u):
    ab, b = random_system(12, l_and_u, 4, 6.0, 1)
    ab[:, 4] = 0.0  # column 4 of the matrix is zero
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded(l_and_u, ab, b)


def test_band_count_must_match_ab():
    ab, b = random_system(12, (1, 1), 5, 6.0, 1)
    with pytest.raises(ValueError):
        solve_banded((2, 2), ab, b)
    with pytest.raises(ValueError):
        solve_banded((1, 1), ab, b[:-1])


def test_the_solvers_call_this_solve():
    # the benchmark's linalg.solve_banded span patches these names, so it
    # times the solve the solvers run
    assert lagflow.allen_cahn.solve_banded is solve_banded
    assert lagflow.wgf1d.solve_banded is solve_banded
