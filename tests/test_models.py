from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lagflow.models as models
from lagflow.grids import Grid1D, Grid2D
from lagflow.models import (ConstantMobility, DegenerateMobility, FokkerPlanck,
                            GinzburgLandau, KellerSegel1D, KellerSegel2D, PorousMedium,
                            ac_discrete_energy, check_mobility_positive, discrete_energy_1d,
                            discrete_energy_2d, discrete_energy_grad_1d,
                            discrete_energy_grad_2d, discrete_energy_hess_1d,
                            discrete_energy_hess_2d, energy_density, ks1d_pair_energy)


def random_admissible_1d(grid, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    x = grid.nodes + scale * grid.h * rng.uniform(-1.0, 1.0, grid.m_x + 1)
    x[0], x[-1] = grid.x_min, grid.x_max
    assert np.all(np.diff(x) > 0)
    return x, rng


def random_admissible_2d(grid, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    x = grid.ref_x + scale * grid.h_x * rng.uniform(-1.0, 1.0, grid.node_shape)
    y = grid.ref_y + scale * grid.h_y * rng.uniform(-1.0, 1.0, grid.node_shape)
    for a, ref in ((x, grid.ref_x), (y, grid.ref_y)):
        a[0, :], a[-1, :], a[:, 0], a[:, -1] = ref[0, :], ref[-1, :], ref[:, 0], ref[:, -1]
    return x, y, rng


def test_energy_density_values():
    assert energy_density(PorousMedium(2.0), 2.0) == pytest.approx(4.0)
    assert energy_density(FokkerPlanck(lambda x: 0.0 * np.asarray(x),
                                       lambda x: 0.0 * np.asarray(x),
                                       lambda x: 0.0 * np.asarray(x)), 1.0, x=0.3) == pytest.approx(0.0)
    assert energy_density(PorousMedium(3.0), 0.5) == pytest.approx(0.0625)
    with pytest.raises(ValueError):
        energy_density(FokkerPlanck(), 0.0, x=0.0)


def test_discrete_energy_identity_map_pme():
    g = Grid1D(-1.0, 1.0, 4)
    rho0 = np.ones(4)
    # F(1) * 1 * h summed over 4 cells = measure of the domain
    assert discrete_energy_1d(PorousMedium(2.0), g.nodes, rho0, g) == pytest.approx(2.0)


def test_energy_blows_up_as_cell_width_grows():
    # F(1/s) s -> infinity as s -> 0 for the porous-medium density
    g = Grid1D(-1.0, 1.0, 4)
    rho0 = np.ones(4)
    vals = []
    for stretch in (1.0, 10.0, 100.0):
        x = g.nodes.copy()
        x[1] = x[0] + (x[1] - x[0]) / stretch  # widen cell 1+1/2 by shrinking cell 1/2
        vals.append(discrete_energy_1d(PorousMedium(2.0), x, rho0, g))
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 50.0


@pytest.mark.parametrize("model", [PorousMedium(2.0), PorousMedium(3.5), FokkerPlanck(),
                                   KellerSegel1D()])
def test_gradient_matches_finite_differences_1d(model):
    g = Grid1D(-1.0, 1.0, 8)
    for seed in range(4):
        x, rng = random_admissible_1d(g, seed)
        rho0 = rng.uniform(0.4, 1.4, 8)
        lag_x = lag_rho = None
        if isinstance(model, KellerSegel1D):
            lag_x = x.copy()
            lag_rho = rho0 * g.h / np.diff(lag_x)
        grad = discrete_energy_grad_1d(model, x, rho0, g, pinned=True,
                                       lagged_x=lag_x, lagged_rho=lag_rho)
        assert grad[0] == 0.0 and grad[-1] == 0.0
        eps = 1e-6
        for j in range(1, 8):
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            fd = (discrete_energy_1d(model, xp, rho0, g, lag_x, lag_rho)
                  - discrete_energy_1d(model, xm, rho0, g, lag_x, lag_rho)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_pme_uniform_gradient_vanishes():
    # per-cell energies have equal and opposite derivatives on a uniform mesh
    g = Grid1D(-1.0, 1.0, 10)
    grad = discrete_energy_grad_1d(PorousMedium(2.0), g.nodes, np.ones(10), g)
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_gradient_antisymmetric_under_reversal():
    g = Grid1D(-1.0, 1.0, 8)
    x, rng = random_admissible_1d(g, 12)
    rho0 = rng.uniform(0.4, 1.4, 8)
    grad = discrete_energy_grad_1d(FokkerPlanck(), x, rho0, g, pinned=True)
    x_rev = -x[::-1]
    grad_rev = discrete_energy_grad_1d(FokkerPlanck(), x_rev, rho0[::-1], g, pinned=True)
    assert np.allclose(grad_rev, -grad[::-1], atol=1e-12)


def test_hessian_matches_fd_of_gradient_1d():
    g = Grid1D(-1.0, 1.0, 8)
    x, rng = random_admissible_1d(g, 3)
    rho0 = rng.uniform(0.4, 1.4, 8)
    for model in (PorousMedium(2.0), FokkerPlanck()):
        diag, off = discrete_energy_hess_1d(model, x, rho0, g)
        eps = 1e-6
        n = x.size
        h_fd = np.zeros((n, n))
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            h_fd[:, j] = (discrete_energy_grad_1d(model, xp, rho0, g, pinned=False)
                          - discrete_energy_grad_1d(model, xm, rho0, g, pinned=False)) / (2 * eps)
        h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.allclose(h, h_fd, rtol=1e-5, atol=1e-7)


def test_energy_convex_along_cell_directions():
    # second difference quotient along random admissible segments is positive
    g = Grid1D(-1.0, 1.0, 8)
    rng = np.random.default_rng(0)
    for model in (PorousMedium(2.0), FokkerPlanck()):
        for seed in range(5):
            x, r2 = random_admissible_1d(g, seed)
            rho0 = r2.uniform(0.4, 1.4, 8)
            d = rng.uniform(-1.0, 1.0, 9)
            d[0] = d[-1] = 0.0
            t = 0.02 * g.h
            e0 = discrete_energy_1d(model, x, rho0, g)
            ep = discrete_energy_1d(model, x + t * d, rho0, g)
            em = discrete_energy_1d(model, x - t * d, rho0, g)
            assert ep + em - 2 * e0 > 0.0


def test_ks_pair_energy_symmetric():
    g = Grid1D(-1.0, 1.0, 8)
    x, rng = random_admissible_1d(g, 5)
    rho0 = rng.uniform(0.4, 1.4, 8)
    for (i, j) in ((0, 3), (2, 7), (4, 5)):
        assert ks1d_pair_energy(x, rho0, g, i, j) == ks1d_pair_energy(x, rho0, g, j, i)


def test_ks_interaction_matches_bracket_transcription():
    # the antiderivative kernel equals an independent transcription written
    # with the (a log|a|) bracket per node, whose dropped linear terms
    # telescope to the constant mass^2 / (2 pi)
    g = Grid1D(-1.0, 1.0, 6)
    x, rng = random_admissible_1d(g, 9)
    rho0 = rng.uniform(0.4, 1.4, 6)
    lag_x = np.sort(rng.uniform(-1.0, 1.0, 7))
    lag_x[0], lag_x[-1] = -1.0, 1.0
    lag_rho = rho0 * g.h / np.diff(lag_x)
    mine = discrete_energy_1d(KellerSegel1D(), x, rho0, g, lag_x, lag_rho)
    entropy = float(np.sum(rho0 * g.h * np.log(rho0 * g.h / np.diff(x))))
    bracket = 0.0
    mids = 0.5 * (x[:-1] + x[1:])
    for i in range(6):
        for j in range(6):
            c = mids[i]
            a1 = c - lag_x[j + 1]
            a0 = c - lag_x[j]
            term = a1 * np.log(abs(a1)) - a0 * np.log(abs(a0))
            bracket += rho0[i] * lag_rho[j] * term
    bracket_form = entropy - g.h / (2.0 * np.pi) * bracket
    mass = float(np.sum(rho0 * g.h))
    assert mine == pytest.approx(bracket_form - mass ** 2 / (2.0 * np.pi), rel=1e-12)


def _ks_kernel(points, nodes, order):
    """Dense matrix of a log|a| - a (order 0), log|a| (1) or 1/a (2), a = c_i - y_j:
    the kernel as it was built before the memo, kept as the oracle."""
    a = np.asarray(points)[:, None] - np.asarray(nodes)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 0:
            out = np.where(a == 0.0, 0.0, a * np.log(np.abs(np.where(a == 0.0, 1.0, a))) - a)
        elif order == 1:
            out = np.log(np.abs(a))
        else:
            out = 1.0 / a
    return out


def _oracle_sums(points, partner_x, partner_rho, order):
    w = models._ks_node_weights(np.asarray(partner_rho, dtype=float))
    return _ks_kernel(points, partner_x, order) @ w


def _ks_quantities(x, rho0, g, lag_x, lag_rho):
    """Orders 0/1/2 of the sums, then energy, gradient and Hessian bands."""
    model = KellerSegel1D()
    mids = 0.5 * (x[:-1] + x[1:])
    partner_x = x if lag_x is None else lag_x
    partner_rho = rho0 * g.h / np.diff(x) if lag_x is None else lag_rho
    with np.errstate(divide="ignore", invalid="ignore"):
        return ([models._ks1d_sums(mids, partner_x, partner_rho, k) for k in (0, 1, 2)]
                + [discrete_energy_1d(model, x, rho0, g, lag_x, lag_rho),
                   discrete_energy_grad_1d(model, x, rho0, g, lagged_x=lag_x,
                                           lagged_rho=lag_rho),
                   *discrete_energy_hess_1d(model, x, rho0, g, lag_x, lag_rho)])


def _assert_ks_matches_oracle(x, rho0, g, lag_x=None, lag_rho=None):
    got = _ks_quantities(x, rho0, g, lag_x, lag_rho)
    with mock.patch.object(models, "_ks1d_sums", _oracle_sums):
        want = _ks_quantities(x, rho0, g, lag_x, lag_rho)
    for value, ref in zip(got, want):
        ref = np.atleast_1d(ref)
        # infinities (a point on a partner node) must sit in the same places
        scale = np.max(np.abs(ref[np.isfinite(ref)]), initial=0.0) or 1.0
        np.testing.assert_allclose(value, ref, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(mx=st.sampled_from([7, 8, 33]), partner=st.sampled_from(["lagged", "x", "self"]),
       coincide=st.booleans(),
       shifts=arrays(np.float64, (3, 34), elements=st.floats(-0.3, 0.3)))
def test_ks1d_sums_match_dense_kernel(mx, partner, coincide, shifts):
    g = Grid1D(-1.0, 1.0, mx)
    x = g.nodes + g.h * shifts[0, : mx + 1]
    x[0], x[-1] = g.x_min, g.x_max
    rho0 = 1.0 + shifts[1, :mx]
    lag_x = lag_rho = None
    if partner == "x":
        lag_x = x.copy()
    elif partner == "lagged":
        lag_x = g.nodes + g.h * shifts[2, : mx + 1]
        lag_x[0], lag_x[-1] = g.x_min, g.x_max
        if coincide:
            # one midpoint of x sits exactly on a partner node
            k = mx // 2
            lag_x[k] = 0.5 * (x[k] + x[k + 1])
            assume(np.all(np.diff(lag_x) > 0.0))
    if lag_x is not None:
        lag_rho = rho0 * g.h / np.diff(lag_x)
    _assert_ks_matches_oracle(x, rho0, g, lag_x, lag_rho)


def test_ks1d_memo_never_answers_for_a_changed_array():
    g = Grid1D(-1.0, 1.0, 8)
    x1, rng = random_admissible_1d(g, 21)
    x2, _ = random_admissible_1d(g, 22)
    rho0 = rng.uniform(0.4, 1.4, 8)
    # self-consistent: x1 is both the evaluation point and the partner
    _assert_ks_matches_oracle(x1, rho0, g)
    _assert_ks_matches_oracle(x2, rho0, g)
    _assert_ks_matches_oracle(x1, rho0, g)
    x1[1:-1] += 0.1 * g.h
    _assert_ks_matches_oracle(x1, rho0, g)
    # a lagged partner changed in place after a call
    lag_x = x2.copy()
    lag_rho = rho0 * g.h / np.diff(lag_x)
    _assert_ks_matches_oracle(x1, rho0, g, lag_x, lag_rho)
    lag_x[1:-1] -= 0.1 * g.h
    _assert_ks_matches_oracle(x1, rho0, g, lag_x, lag_rho)
    # the sums themselves, with both key arrays changed in place
    points = 0.5 * (x1[:-1] + x1[1:])
    for order in (0, 1, 2):
        models._ks1d_sums(points, lag_x, lag_rho, order)
        points += 0.01 * g.h
        lag_x[1:-1] += 0.01 * g.h
        np.testing.assert_allclose(models._ks1d_sums(points, lag_x, lag_rho, order),
                                   _oracle_sums(points, lag_x, lag_rho, order),
                                   rtol=1e-12, atol=0.0)


def test_mobility_positivity_check():
    check_mobility_positive(ConstantMobility(), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        check_mobility_positive(DegenerateMobility(), np.array([0.5, 1.0]))


def test_ginzburg_landau_validation():
    with pytest.raises(ValueError):
        GinzburgLandau(0.0)
    with pytest.raises(ValueError):
        PorousMedium(1.0)
    with pytest.raises(ValueError):
        KellerSegel2D(m=0.5)


def test_ac_discrete_energy_frozen_value():
    # direct-summation oracle computed independently:
    # rho0 = 1 - X^2 on [-1,1], x = X, eps = 0.01, M_x = 16
    g = Grid1D(-1.0, 1.0, 16)
    rho0_nodes = 1.0 - g.nodes ** 2
    rho0_prime = -2.0 * g.nodes
    e = ac_discrete_energy(g.nodes, rho0_nodes, rho0_prime, g, 0.01)
    assert e == pytest.approx(0.1699840240716934, rel=1e-13)


def test_ac_discrete_energy_constant_profile():
    # constant rho0 kills the gradient term; the rest is the node quadrature
    g = Grid1D(-1.0, 1.0, 16)
    c = 0.3
    rho0 = np.full(17, c)
    e = ac_discrete_energy(g.nodes, rho0, np.zeros(17), g, 0.01)
    assert e == pytest.approx(((c ** 2 - 1.0) ** 2 / 4.0) * 2.0, rel=1e-13)


def test_ac_energy_mirror_symmetry():
    g = Grid1D(-1.0, 1.0, 16)
    rng = np.random.default_rng(2)
    x = g.nodes + 0.2 * g.h * rng.uniform(-1, 1, 17)
    x[0], x[-1] = -1.0, 1.0
    rho0 = 1.0 - g.nodes ** 2
    e = ac_discrete_energy(x, rho0, -2.0 * g.nodes, g, 0.01)
    e_mirror = ac_discrete_energy(-x[::-1], rho0[::-1], (-2.0 * g.nodes)[::-1], g, 0.01)
    assert e_mirror == pytest.approx(e, rel=1e-12)


def test_gradient_matches_finite_differences_2d():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 7, 7)
    for seed, model in ((0, PorousMedium(2.0)), (1, PorousMedium(3.0)),
                        (2, KellerSegel2D(2.0, 1.0))):
        x, y, rng = random_admissible_2d(g, seed)
        rho0 = rng.uniform(0.3, 1.2, g.node_shape)
        gx, gy = discrete_energy_grad_2d(model, x, y, rho0, g)
        eps = 1e-6
        for (i, j) in ((1, 1), (3, 4), (6, 2), (5, 5)):
            for comp, arr in ((0, gx), (1, gy)):
                fields_p = [x.copy(), y.copy()]
                fields_m = [x.copy(), y.copy()]
                fields_p[comp][i, j] += eps
                fields_m[comp][i, j] -= eps
                fd = (discrete_energy_2d(model, fields_p[0], fields_p[1], rho0, g)
                      - discrete_energy_2d(model, fields_m[0], fields_m[1], rho0, g)) / (2 * eps)
                assert arr[i, j] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_gradient_2d_interior_translation_invariance():
    # identity map, constant rho0: the four stencil contributions cancel in
    # the deep interior
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
    rho0 = np.full(g.node_shape, 0.7)
    gx, gy = discrete_energy_grad_2d(PorousMedium(2.0), g.ref_x, g.ref_y, rho0, g)
    assert np.allclose(gx[2:-2, 2:-2], 0.0, atol=1e-13)
    assert np.allclose(gy[2:-2, 2:-2], 0.0, atol=1e-13)


def test_gradient_2d_swap_symmetry():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 7, 7)
    x, y, rng = random_admissible_2d(g, 3)
    rho0 = rng.uniform(0.3, 1.2, g.node_shape)
    gx, gy = discrete_energy_grad_2d(PorousMedium(2.0), x, y, rho0, g)
    # swap x <-> y and transpose the grid roles
    gx2, gy2 = discrete_energy_grad_2d(PorousMedium(2.0), y.T, x.T, rho0.T, g)
    assert np.allclose(gy2, gx.T, atol=1e-12)
    assert np.allclose(gx2, gy.T, atol=1e-12)


def test_scaled_map_energy_2d():
    # (x, y) = (2X, 2Y): det = 4, s = rho0/4, per-cell value F(1/4) * 4
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    rho0 = np.ones(g.node_shape)
    e = discrete_energy_2d(PorousMedium(2.0), 2 * g.ref_x, 2 * g.ref_y, rho0, g)
    per_node = (0.25 ** 2) * 4.0
    assert e == pytest.approx(per_node * 25 * g.h_x * g.h_y, rel=1e-12)


def test_hessian_2d_matches_fd():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    x, y, rng = random_admissible_2d(g, 7)
    rho0 = rng.uniform(0.3, 1.2, g.node_shape)
    model = PorousMedium(2.0)
    h = discrete_energy_hess_2d(model, x, y, rho0, g).toarray()
    n = 9
    eps = 1e-6

    def grad_vec(ax, ay):
        gx, gy = discrete_energy_grad_2d(model, ax, ay, rho0, g)
        area = g.h_x * g.h_y
        return np.concatenate([gx[1:-1, 1:-1].ravel(), gy[1:-1, 1:-1].ravel()]) / area

    h_fd = np.zeros((2 * n, 2 * n))
    for k in range(2 * n):
        comp, rem = divmod(k, n)
        i, j = divmod(rem, 3)
        fp = [x.copy(), y.copy()]
        fm = [x.copy(), y.copy()]
        fp[comp][i + 1, j + 1] += eps
        fm[comp][i + 1, j + 1] -= eps
        h_fd[:, k] = (grad_vec(*fp) - grad_vec(*fm)) / (2 * eps)
    assert np.allclose(h, h_fd, rtol=1e-5, atol=1e-6)
