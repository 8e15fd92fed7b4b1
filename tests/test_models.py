import subprocess
import sys
import textwrap
import threading
import time
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lagflow.models as models
from lagflow.config import preset_defaults
from lagflow.experiments import build_sim
from lagflow.grids import Grid1D, Grid2D
from lagflow.models import (ConstantMobility, DegenerateMobility, Entropy, FokkerPlanck,
                            GinzburgLandau, KellerSegel1D, KellerSegel2D, PorousMedium, PowerLaw,
                            ac_discrete_energy, check_mobility_positive, discrete_energy_1d,
                            discrete_energy_2d, discrete_energy_grad_1d,
                            discrete_energy_hess_1d, discrete_energy_hess_2d)
from masks import MASK_KINDS, masked_rho0
from oracles import discrete_energy_grad_2d, energy_density, ks1d_pair_energy


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


# central differences with step h = 1e-5 s: the truncation error (h/s)^2 s^2 |f'''| / 6
# and the rounding error eps |f| / h both stay below 1e-9 of the terms compared
# for m in (1, 4] and s in [1e-3, 1e3], so 1e-8 is the bound
_FD_STEP = 1e-5
_FD_RTOL = 1e-8


def _central_diff(f, s):
    h = _FD_STEP * s
    return (f(s + h) - f(s - h)) / (2.0 * h)


@settings(max_examples=200, deadline=None)
@given(term=st.one_of(st.builds(PowerLaw, st.floats(1.0, 4.0, exclude_min=True),
                                st.floats(0.1, 5.0)),
                      st.builds(Entropy, st.floats(0.1, 5.0))),
       s=st.floats(1e-3, 1e3))
def test_internal_term_pressure_is_f_minus_s_f_prime(term, s):
    f, df = term.density(s), _central_diff(term.density, s)
    g = term.pressure(s)
    assert abs(g - (f - s * df)) <= _FD_RTOL * (abs(f) + abs(s * df))
    dg = _central_diff(term.pressure, s)
    assert abs(term.pressure_deriv(s) - dg) <= _FD_RTOL * (abs(dg) + abs(g) / s)


def test_models_hold_their_internal_term():
    assert PorousMedium(3.0).internal == PowerLaw(3.0)
    assert FokkerPlanck().internal == KellerSegel1D().internal == Entropy()
    assert KellerSegel2D(1.0, 0.7).internal == Entropy(0.7)
    assert KellerSegel2D(2.0, 0.7).internal == PowerLaw(2.0, 0.7)


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


def _oracle_sums(points, partner, order):
    w = models._ks_node_weights(partner.rho)
    return _ks_kernel(points, partner.x, order) @ w


def _ks_quantities(x, rho0, g, lag_x, lag_rho):
    """Orders 0/1/2 of the sums, then energy, gradient and Hessian bands."""
    model = KellerSegel1D()
    mids = 0.5 * (x[:-1] + x[1:])
    partner_x = x if lag_x is None else lag_x
    partner_rho = rho0 * g.h / np.diff(x) if lag_x is None else lag_rho
    with np.errstate(divide="ignore", invalid="ignore"):
        partner = models.KsPartner1D(partner_x, partner_rho)
        return ([models._ks1d_sums(mids, partner, k) for k in (0, 1, 2)]
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
        models._ks1d_sums(points, models.KsPartner1D(lag_x, lag_rho), order)
        points += 0.01 * g.h
        lag_x[1:-1] += 0.01 * g.h
        partner = models.KsPartner1D(lag_x, lag_rho)
        np.testing.assert_allclose(models._ks1d_sums(points, partner, order),
                                   _oracle_sums(points, partner, order),
                                   rtol=1e-12, atol=0.0)


def _assert_same_bits(got, want):
    # equal values with inf/nan in the same places, and equal signs (so +-0.0 too)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# order 0 sums the antiderivative through one product with the partner's two
# columns, not elementwise as the oracle does: it must match the oracle to
# ORDER0_RTOL of the oracle's largest entry (worst measured 1.4e-14 over 12,000
# draws of test_ks1d_order0_matches_dense_kernel's distribution)
ORDER0_RTOL = 1e-13


def _assert_order0_close(got, want):
    assert got.shape == want.shape
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= ORDER0_RTOL * np.max(np.abs(want))


def test_ks1d_pair_buffers_are_reused_per_shape_and_read_only():
    # every call misses the memo: mx = 33 twice at other values, the 1 x 2 shape
    # of ks1d_pair_energy, mx = 33 again, then mx = 256, each with a point on a
    # partner node; then mx = 33, 1 and 256 with no point on one
    cases = []
    for mx, seed, coincide in ((33, 41, True), (33, 42, True), (1, 43, True), (33, 44, True),
                               (256, 45, True), (33, 46, False), (1, 47, False),
                               (256, 48, False)):
        rng = np.random.default_rng(seed)
        partner_x = np.sort(rng.uniform(-1.0, 1.0, mx + 1))
        points = rng.uniform(-1.0, 1.0, mx)
        if coincide:
            points[mx // 2] = partner_x[mx // 2]  # a point on a partner node
        else:
            assert not np.isin(points, partner_x).any()
        cases.append((points, models.KsPartner1D(partner_x, rng.uniform(0.4, 1.4, mx)),
                      coincide))
    results, pairs = [], []
    for points, partner, coincide in cases:
        sums = [models._ks1d_sums(points, partner, k) for k in (0, 1, 2)]
        for k, got in enumerate(sums):
            want = _oracle_sums(points, partner, k)
            if k == 0 and not coincide:
                _assert_order0_close(got, want)
            else:
                # orders 1 and 2 everywhere, and order 0 through its elementwise
                # fallback on a partner node
                _assert_same_bits(got, want)
        assert np.isinf(sums[1]).any() == coincide and np.isinf(sums[2]).any() == coincide
        results.append((sums, [s.copy() for s in sums]))
        a, log_abs, _ = models._ks_pairs(points, partner.x)
        for arr in (a, log_abs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        pairs.append((a, log_abs))
    # results handed out earlier are not touched by the later misses
    for sums, copies in results:
        for got, kept in zip(sums, copies):
            _assert_same_bits(got, kept)
    # a second miss at the same shape writes into the first one's buffers
    for first, second in zip(pairs[0], pairs[1]):
        assert np.shares_memory(first, second)
    assert not np.shares_memory(pairs[3][0], pairs[4][0])


@settings(max_examples=60, deadline=None)
@given(mx=st.sampled_from([7, 33, 256]), lagged=st.booleans(),
       shift=st.floats(-2e3, 2e3),
       jitter=arrays(np.float64, (3, 257), elements=st.floats(-0.3, 0.3)))
def test_ks1d_order0_matches_dense_kernel(mx, lagged, shift, jitter):
    # sorted points off the partner nodes, a lagged or self-consistent partner,
    # and the whole configuration translated by up to 10^3 domain lengths
    g = Grid1D(-1.0, 1.0, mx)
    x = g.nodes + g.h * jitter[0, : mx + 1]
    x[0], x[-1] = g.x_min, g.x_max
    rho0 = 1.0 + jitter[1, :mx]
    partner_x = x
    if lagged:
        partner_x = g.nodes + g.h * jitter[2, : mx + 1]
        partner_x[0], partner_x[-1] = g.x_min, g.x_max
    x, partner_x = x + shift, partner_x + shift
    points = 0.5 * (x[:-1] + x[1:])
    assume(np.all(np.diff(points) > 0.0) and np.all(np.diff(partner_x) > 0.0))
    assume(not np.isin(points, partner_x).any())
    partner = models.KsPartner1D(partner_x, rho0 * g.h / np.diff(partner_x))
    _assert_order0_close(models._ks1d_sums(points, partner, 0),
                         _oracle_sums(points, partner, 0))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.sampled_from([(1, 2), (7, 8), (33, 34)]))
def test_ks1d_pair_matrix_is_the_elementwise_difference(data, size):
    # the rank-2 product rounds each entry once, as the subtraction does; only
    # a -0.0 point on a +0.0 node may give +0.0 where the subtraction gives -0.0
    coord = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))
    points = data.draw(arrays(np.float64, size[0], elements=coord))
    nodes = data.draw(arrays(np.float64, size[1], elements=coord))
    nodes[data.draw(arrays(np.bool_, size[1]))] = 0.0
    points[: size[0] // 2] = nodes[: size[0] // 2]  # points on nodes
    with np.errstate(divide="ignore"):  # log 0 where a point sits on a node
        a, _, _ = models._ks_pairs(points, nodes)
    want = points[:, None] - nodes[None, :]
    assert np.array_equal(a, want)
    signed = ~(np.signbit(points)[:, None] & (want == 0.0) & ~np.signbit(nodes)[None, :])
    assert np.array_equal(np.signbit(a)[signed], np.signbit(want)[signed])


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


def _hess_2d_coo(model, x, y, rho0, grid):
    """The 2D Hessian from a COO list rebuilt on every call, as it was
    assembled before the cached pattern, kept as the oracle."""
    _, det, s = models.deformation_state_2d(x, y, rho0, grid)
    p = model.internal.pressure(s)
    pp = -model.internal.pressure_deriv(s) * s / det
    hx, hy = grid.h_x, grid.h_y
    my1, mx1 = det.shape
    n_int = my1 * mx1
    x_x, x_y, y_x, y_y = models.deformation_stencil(x, y, grid)
    ii, jj = np.meshgrid(np.arange(1, my1 + 1), np.arange(1, mx1 + 1), indexing="ij")

    def dof(i, j, comp):
        inside = (i >= 1) & (i <= my1) & (j >= 1) & (j <= mx1)
        idx = (i - 1) * mx1 + (j - 1) + comp * n_int
        return np.where(inside, idx, -1).ravel()

    cols = np.stack([
        dof(ii, jj - 1, 0), dof(ii, jj + 1, 0), dof(ii - 1, jj, 0), dof(ii + 1, jj, 0),
        dof(ii, jj - 1, 1), dof(ii, jj + 1, 1), dof(ii - 1, jj, 1), dof(ii + 1, jj, 1),
    ])
    grad = np.stack([
        (-y_y / (2.0 * hx)).ravel(), (y_y / (2.0 * hx)).ravel(),
        (y_x / (2.0 * hy)).ravel(), (-y_x / (2.0 * hy)).ravel(),
        (x_y / (2.0 * hx)).ravel(), (-x_y / (2.0 * hx)).ravel(),
        (-x_x / (2.0 * hy)).ravel(), (x_x / (2.0 * hy)).ravel(),
    ])
    rows_o = np.repeat(cols, 8, axis=0).ravel()
    cols_o = np.tile(cols, (8, 1)).ravel()
    vals_o = (pp.ravel()[None, :] * np.einsum("ik,jk->ijk", grad, grad).reshape(64, -1)).ravel()
    k = 1.0 / (4.0 * hx * hy)
    pair_idx = [(0, 7, -k), (0, 6, k), (1, 7, k), (1, 6, -k),
                (4, 3, k), (4, 2, -k), (5, 3, -k), (5, 2, k)]
    rows_b, cols_b, vals_b = [], [], []
    pflat = p.ravel()
    for a, b, w in pair_idx:
        rows_b += [cols[a], cols[b]]
        cols_b += [cols[b], cols[a]]
        vals_b += [np.full(n_int, w) * pflat] * 2
    rows = np.concatenate([rows_o, np.concatenate(rows_b)])
    colsc = np.concatenate([cols_o, np.concatenate(cols_b)])
    vals = np.concatenate([vals_o, np.concatenate(vals_b)])
    keep = (rows >= 0) & (colsc >= 0)
    h = sps.coo_matrix((vals[keep], (rows[keep], colsc[keep])), shape=(2 * n_int, 2 * n_int))
    return h.tocsr()


def _assert_hess_2d_matches_oracle(model, grid, seed, rho0=None):
    x, y, rng = random_admissible_2d(grid, seed)
    if rho0 is None:
        rho0 = rng.uniform(0.2, 1.5, grid.node_shape)
    got = discrete_energy_hess_2d(model, x, y, rho0, grid)
    want = _hess_2d_coo(model, x, y, rho0, grid)
    atol = 1e-14 * np.max(np.abs(want.data), initial=0.0)
    if np.all(rho0[1:-1, 1:-1] > 0.0):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=0.0, atol=atol)
    else:
        np.testing.assert_allclose(got.toarray(), want.toarray(), rtol=0.0, atol=atol)
    return got


def _touched_by_massive_nodes(grid, rho0):
    """(row, column) pairs of the stacked interior unknowns that share the
    eight-unknown stencil of some interior node with mass."""
    my1, mx1 = grid.m_y - 1, grid.m_x - 1
    touched = set()
    for i, j in zip(*np.nonzero(rho0[1:-1, 1:-1] > 0.0)):
        stencil = [(comp, i + di, j + dj) for comp in (0, 1)
                   for di, dj in ((0, -1), (0, 1), (-1, 0), (1, 0))]
        dofs = [comp * my1 * mx1 + a * mx1 + b for comp, a, b in stencil
                if 0 <= a < my1 and 0 <= b < mx1]
        touched |= {(r, c) for r in dofs for c in dofs}
    return touched


@settings(max_examples=40, deadline=None)
@given(interior=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       model=st.sampled_from([PorousMedium(2.0), PorousMedium(3.0), PorousMedium(1.5),
                              KellerSegel2D(1.0, 0.7), KellerSegel2D(2.0, 0.7)]),
       seed=st.integers(0, 2 ** 16))
def test_hess_2d_cached_pattern_matches_coo_oracle(interior, model, seed):
    # shapes called alternately, two of them with one node count: one shape's
    # cached pattern never serves another
    for my1, mx1 in (interior, (2, 3), (3, 2), interior, (2, 3)):
        grid = Grid2D(-1.0, 1.0, -0.5, 0.5, mx1 + 1, my1 + 1)
        _assert_hess_2d_matches_oracle(model, grid, seed)


@settings(max_examples=40, deadline=None)
@given(interior=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       kinds=st.lists(st.sampled_from(MASK_KINDS), min_size=2, max_size=4),
       model=st.sampled_from([PorousMedium(2.0), PorousMedium(3.0), PorousMedium(1.5),
                              KellerSegel2D(1.0, 0.7), KellerSegel2D(2.0, 0.7)]),
       seed=st.integers(0, 2 ** 16))
def test_hess_2d_on_massive_nodes_matches_coo_oracle(interior, kinds, model, seed):
    # compactly supported rho0: masks called alternately on one shape, so one
    # mask's cached pattern never serves another
    my1, mx1 = interior
    grid = Grid2D(-1.0, 1.0, -0.5, 0.5, mx1 + 1, my1 + 1)
    for kind in kinds + kinds[:1]:
        rho0 = masked_rho0(grid, kind, seed)
        got = _assert_hess_2d_matches_oracle(model, grid, seed, rho0)
        stored = got.tocoo()
        assert set(zip(stored.row.tolist(), stored.col.tolist())) == \
            _touched_by_massive_nodes(grid, rho0)
        mask = models.mass_mask(rho0)
        pattern = models._hess_2d_pattern(my1, mx1, mask)
        assert pattern is models._hess_2d_pattern(my1, mx1, mask)
        # the public structure is the one every returned matrix is stored in
        indptr, indices = models.hess_2d_structure(my1, mx1, mask)
        assert np.array_equal(got.indptr, indptr) and np.array_equal(got.indices, indices)
        assert np.array_equal(pattern.nodes, np.flatnonzero(rho0[1:-1, 1:-1] > 0.0))
        for arr in pattern:
            assert not arr.flags.writeable


def test_hess_2d_cached_pattern_is_read_only():
    pattern = models._hess_2d_pattern(2, 3)
    assert pattern is models._hess_2d_pattern(2, 3)
    # all-massive data maps to the maskless key; another mask gets its own pattern
    assert models.mass_mask(np.ones((4, 5))) is None
    mask = np.array([[True, False, True], [True, True, False]]).tobytes()
    masked = models._hess_2d_pattern(2, 3, mask)
    assert masked is models._hess_2d_pattern(2, 3, mask) and masked is not pattern
    assert masked.indices.size < pattern.indices.size
    for arr in pattern:
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    # the returned matrix owns its index arrays
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 3)
    h = discrete_energy_hess_2d(PorousMedium(2.0), g.ref_x, g.ref_y, np.ones(g.node_shape), g)
    h.indices[0] = h.indices[0]
    assert not np.shares_memory(h.indices, pattern.indices)


def _ks2d_chunked_energy(model, x, y, rho0, grid):
    """Both halves of the pair matrix, 512 rows at a time: the 2D interaction
    energy as it was summed before the symmetric strips, kept as the oracle.
    Returns the energy and the sum of its terms' magnitudes."""
    masses = (np.asarray(rho0) * grid.h_x * grid.h_y).ravel()
    keep = masses > 0.0
    px = np.asarray(x).ravel()[keep]
    py = np.asarray(y).ravel()[keep]
    m = masses[keep]
    n = m.size
    total = magnitude = 0.0
    for lo in range(0, n, 512):
        hi = min(lo + 512, n)
        dx = px[lo:hi, None] - px[None, :]
        dy = py[lo:hi, None] - py[None, :]
        r2 = dx * dx + dy * dy
        r2[np.arange(lo, hi) - lo, np.arange(lo, hi)] = 1.0
        total += float(m[lo:hi] @ (0.5 * np.log(r2)) @ m)
        magnitude += float(m[lo:hi] @ np.abs(0.5 * np.log(r2)) @ m)
    total *= 0.25 / np.pi
    magnitude *= 0.25 / np.pi
    a_eq = np.sqrt(grid.h_x * grid.h_y / np.pi)
    self_term = 0.25 / np.pi * float(np.sum(m * m)) * (np.log(a_eq) - 0.5)
    return total + self_term, magnitude + abs(self_term)


def _ks2d_chunked_force(model, x, y, rho0, grid):
    """The 2D interaction force from elementwise row sums, kept as the oracle."""
    masses = (np.asarray(rho0) * grid.h_x * grid.h_y).ravel()
    keep = masses > 0.0
    shape = np.asarray(x).shape
    px = np.asarray(x).ravel()[keep]
    py = np.asarray(y).ravel()[keep]
    m = masses[keep]
    n = m.size
    ax = np.empty(n)
    ay = np.empty(n)
    for lo in range(0, n, 512):
        hi = min(lo + 512, n)
        dx = px[lo:hi, None] - px[None, :]
        dy = py[lo:hi, None] - py[None, :]
        r2 = dx * dx + dy * dy
        r2[np.arange(lo, hi) - lo, np.arange(lo, hi)] = 1.0
        inv = m / r2
        ax[lo:hi] = np.einsum("ij,ij->i", dx, inv)
        ay[lo:hi] = np.einsum("ij,ij->i", dy, inv)
    fx = np.zeros(shape[0] * shape[1])
    fy = np.zeros_like(fx)
    fx[keep] = ax * m / (2.0 * np.pi)
    fy[keep] = ay * m / (2.0 * np.pi)
    scale = grid.h_x * grid.h_y
    return fx.reshape(shape) / scale, fy.reshape(shape) / scale


# strip counts of the mass-carrying nodes: inside one strip, whole strips, a remainder
_KS2D_NODE_COUNTS = [models._STRIP // 2 + 1, models._STRIP, 3 * models._STRIP,
                     2 * models._STRIP + models._STRIP // 3 + 1]
_KS2D_SIDE = int(np.ceil(np.sqrt(3 * models._STRIP + 9)))  # nodes per grid side


def _ks2d_cancelling_draw():
    """A drawn example (75 massive nodes on the 11 x 11 grid) whose energy
    2.3e-5 is 2e-5 of its summed terms' magnitude 1.07: the strip sums and the
    oracle differ by 2.4e-12 of the total but by 5e-17 of the magnitude."""
    assert _KS2D_SIDE == 11
    massless = [3, 4, 6, 9, 14, 16, 19, 20, 21, 22, 23, 25, 26, 32, 37, 38, 44, 49, 50,
                52, 54, 56, 58, 60, 67, 68, 72, 74, 75, 77, 78, 82, 84, 85, 86, 89, 90, 94,
                95, 96, 100, 103, 104, 113, 117, 118]
    density = np.full(121, 1.962890625)
    for k, value in {0: 2.0, 8: 0.34375, 13: 1.625, 29: 0.9375, 30: 1.25, 36: 1.25,
                     41: 0.5, 45: 1.6875, 48: 0.4375, 53: 0.125, 62: 0.34375, 66: 0.5,
                     69: 1.90625, 73: 1.828125, 83: 0.125, 87: 1.65625, 105: 1.75,
                     110: 1.421875, 114: 0.34375}.items():
        density[k] = value
    shifts = np.full((2, 121), -0.12890625)
    shifts[0, [92, 102, 106]] = 0.0, 0.0, 0.21875
    order = [k for k in range(121) if k not in massless] + massless
    return dict(count=75, order=order, density=density.reshape(11, 11),
                shifts=shifts.reshape(2, 11, 11))


def _assert_ks2d_matches_oracle(x, y, rho0, g):
    model = KellerSegel2D()
    energy = models.ks2d_interaction_energy(model, x, y, rho0, g)
    want, magnitude = _ks2d_chunked_energy(model, x, y, rho0, g)
    # relative to the summed terms' magnitude, not to the total, which can cancel
    assert energy == pytest.approx(want, rel=0.0, abs=1e-12 * magnitude)
    got = models.ks2d_interaction_force(model, x, y, rho0, g)
    ref = _ks2d_chunked_force(model, x, y, rho0, g)
    scale = max(np.max(np.abs(ref[0])), np.max(np.abs(ref[1])))
    for value, oracle in zip(got, ref):
        np.testing.assert_allclose(value, oracle, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(count=st.sampled_from(_KS2D_NODE_COUNTS),
       order=st.permutations(range(_KS2D_SIDE ** 2)),
       density=arrays(np.float64, (_KS2D_SIDE, _KS2D_SIDE), elements=st.floats(0.1, 2.0)),
       shifts=arrays(np.float64, (2, _KS2D_SIDE, _KS2D_SIDE), elements=st.floats(-0.25, 0.25)))
@example(**_ks2d_cancelling_draw())
def test_ks2d_strip_sums_match_chunked_oracle(count, order, density, shifts):
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, _KS2D_SIDE - 1, _KS2D_SIDE - 1)
    rho0 = density.copy()
    # zero-mass nodes drop out through the keep mask, wherever they sit
    rho0.ravel()[np.asarray(order[count:], dtype=int)] = 0.0
    x = g.ref_x + g.h_x * shifts[0]
    y = g.ref_y + g.h_y * shifts[1]
    for a, ref in ((x, g.ref_x), (y, g.ref_y)):
        a[0, :], a[-1, :], a[:, 0], a[:, -1] = ref[0, :], ref[-1, :], ref[:, 0], ref[:, -1]
    assert np.count_nonzero(rho0) == count
    _assert_ks2d_matches_oracle(x, y, rho0, g)


def test_ks2d_strip_sums_match_chunked_oracle_on_the_ks2d_reference_map():
    # the ks-2d preset's 64^2 grid on [-5, 5]^2 and density (all 4225 nodes carry
    # mass), its reference map moved smoothly by up to a quarter cell; the
    # boundary nodes stay put
    problem = build_sim(preset_defaults("ks-2d")).problem
    g, rho0 = problem.grid, problem.rho0
    assert g.node_shape == (65, 65) and np.count_nonzero(rho0) == 65 * 65
    sx = np.sin(np.pi * (g.ref_x - g.x_min) / (g.x_max - g.x_min))
    sy = np.sin(np.pi * (g.ref_y - g.y_min) / (g.y_max - g.y_min))
    x = g.ref_x + 0.25 * g.h_x * sx * sy * np.cos(0.7 * g.ref_y)
    y = g.ref_y + 0.25 * g.h_y * sx * sy * np.sin(0.9 * g.ref_x + 0.3)
    _assert_ks2d_matches_oracle(x, y, rho0, g)


# r2 from the centred K = 4 product is within R2_C u (S + d^2) of d^2 =
# |p_i - p_j|^2, with u = 2^-53 and S = |p~_i|^2 + |p~_j|^2 on p~ = p - mean(p);
# the constant is derived in models._fold_upper_strips, not fitted here
R2_C = 16.0


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 31, 32, 33, 97]), diagonal=st.sampled_from([1.0, np.inf]),
       exponent=st.integers(-8, 8), shift=st.sampled_from([0.0, 1e4]), data=st.data())
def test_ks2d_upper_strips_match_elementwise_squares(n, diagonal, exponent, shift, data):
    coord = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]))
    px, py = data.draw(arrays(np.float64, (2, n), elements=coord)) * 10.0 ** exponent
    # a cloud far from the origin: without the centring the product's error
    # would scale with |p|^2 = 2e8, not with the cloud's spread
    px += shift
    py += shift
    # coincident points: some nodes take another node's position
    source = data.draw(arrays(np.intp, n, elements=st.integers(0, n - 1)))
    copy = data.draw(arrays(np.bool_, n))
    px[copy], py[copy] = px[source[copy]], py[source[copy]]
    cx, cy = px - px.mean(), py - py.mean()
    sq = cx * cx + cy * cy
    u = 2.0 ** -53
    # each strip's r2 as its half saw it, in the order that half folded them
    even, odd = models._fold_upper_strips(
        px, py, diagonal, lambda acc, lo, hi, r2: acc + [(lo, hi, r2.copy())], list)
    for lo, hi, r2 in even + odd:
        dx = px[lo:hi, None] - px[None, lo:]
        dy = py[lo:hi, None] - py[None, lo:]
        want = dx * dx + dy * dy
        # want takes four roundings of its own (4u want); an underflowing product
        # is off by at most half the smallest subnormal, and r2 and want take
        # eight products between them
        bound = (R2_C * u * (sq[lo:hi, None] + sq[None, lo:] + want) + 4.0 * u * want
                 + 8.0 * np.finfo(float).smallest_subnormal)
        assert (np.diagonal(r2) == diagonal).all()
        off = ~np.eye(*r2.shape, dtype=bool)
        assert (np.abs(r2 - want)[off] <= bound[off]).all()
    strips = [(lo, min(lo + models._STRIP, n)) for lo in range(0, n, models._STRIP)]
    # every strip once, the even ones in one half and the odd ones in the other,
    # each half ascending
    assert [(lo, hi) for lo, hi, _ in even] == strips[0::2]
    assert [(lo, hi) for lo, hi, _ in odd] == strips[1::2]


def _ks2d_cloud(seed):
    # more than one strip of mass-carrying nodes, a few without mass
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 10)
    x, y, rng = random_admissible_2d(g, seed)
    rho0 = rng.uniform(0.3, 1.2, g.node_shape)
    rho0[rng.random(g.node_shape) < 0.1] = 0.0
    assert np.count_nonzero(rho0) > 2 * models._STRIP
    return g, x, y, rho0


@pytest.mark.filterwarnings("error")
def test_ks2d_kernels_without_mass_are_zero():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
    x, y, _ = random_admissible_2d(g, 5)
    rho0 = np.zeros(g.node_shape)
    assert models.ks2d_interaction_energy(KellerSegel2D(), x, y, rho0, g) == 0.0
    for f in models.ks2d_interaction_force(KellerSegel2D(), x, y, rho0, g):
        assert f.shape == g.node_shape and not np.any(f)


def test_ks2d_forces_obey_newtons_third_law():
    g, x, y, rho0 = _ks2d_cloud(31)
    for f in models.ks2d_interaction_force(KellerSegel2D(), x, y, rho0, g):
        # the pair forces cancel: sum_i m_i a_i = 0 up to rounding
        assert abs(np.sum(f)) <= 1e-13 * np.sum(np.abs(f))


def test_ks2d_interaction_invariant_under_translation():
    g, x, y, rho0 = _ks2d_cloud(32)
    model = KellerSegel2D()
    energy = models.ks2d_interaction_energy(model, x, y, rho0, g)
    force = models.ks2d_interaction_force(model, x, y, rho0, g)
    scale = max(np.max(np.abs(force[0])), np.max(np.abs(force[1])))
    for shift in ((0.37, -1.3), (-25.0, 8.0)):
        xs, ys = x + shift[0], y + shift[1]
        assert models.ks2d_interaction_energy(model, xs, ys, rho0, g) == pytest.approx(
            energy, rel=1e-12, abs=0.0)
        for value, ref in zip(models.ks2d_interaction_force(model, xs, ys, rho0, g), force):
            np.testing.assert_allclose(value, ref, rtol=0.0, atol=1e-12 * scale)


def test_ks2d_interaction_swap_symmetry():
    g, x, y, rho0 = _ks2d_cloud(33)
    g_swap = Grid2D(g.y_min, g.y_max, g.x_min, g.x_max, g.m_y, g.m_x)
    model = KellerSegel2D()
    energy = models.ks2d_interaction_energy(model, x, y, rho0, g)
    assert models.ks2d_interaction_energy(model, y.T, x.T, rho0.T, g_swap) == pytest.approx(
        energy, rel=1e-12, abs=0.0)
    fx, fy = models.ks2d_interaction_force(model, x, y, rho0, g)
    fx2, fy2 = models.ks2d_interaction_force(model, y.T, x.T, rho0.T, g_swap)
    scale = max(np.max(np.abs(fx)), np.max(np.abs(fy)))
    np.testing.assert_allclose(fx2, fy.T, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(fy2, fx.T, rtol=0.0, atol=1e-12 * scale)


def test_2d_kernels_leave_scipy_spatial_unimported():
    # the squared distances are BLAS products; scipy.spatial would add about
    # 0.3 s and 6.5 MB to the set-up of every run
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import lagflow, lagflow.cli, lagflow.experiments
        from lagflow.grids import Grid2D
        from lagflow.models import (KellerSegel2D, ks2d_interaction_energy,
                                    ks2d_interaction_force)
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
        rho0 = np.ones(g.node_shape)
        ks2d_interaction_energy(KellerSegel2D(), g.ref_x, g.ref_y, rho0, g)
        ks2d_interaction_force(KellerSegel2D(), g.ref_x, g.ref_y, rho0, g)
        assert "scipy.spatial" not in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _cpus(count):
    """Make the 2D kernels see ``count`` usable CPUs: 2 runs the odd strips on
    the worker thread even on a one-CPU machine, 1 runs every strip inline."""
    return mock.patch.object(models, "_usable_cpus", return_value=count)


def _within(seconds, call):
    """call() in another thread; fails unless it ends within ``seconds``.
    Returns its result or raises its exception."""
    out = []

    def run():
        try:
            out.append((call(), None))
        except Exception as exc:
            out.append((None, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    result, exc = out[0]
    if exc is not None:
        raise exc
    return result


def _strip_cloud(count, seed):
    """Positions of ``count`` scattered points, for the strip fold alone."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (2, count))


# 1, 2, 3 and 5 strips of mass-carrying nodes, with and without a remainder
@pytest.mark.parametrize("count", sorted({*_KS2D_NODE_COUNTS, 1, models._STRIP + 1,
                                          2 * models._STRIP, 5 * models._STRIP - 3}))
def test_ks2d_worker_and_inline_walks_give_the_same_bits(count):
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 12)
    x, y, rng = random_admissible_2d(g, count)
    rho0 = rng.uniform(0.3, 1.2, g.node_shape)
    rho0.ravel()[rng.permutation(rho0.size)[count:]] = 0.0
    model = KellerSegel2D()
    results = {}
    for cpus in (1, 2):
        with _cpus(cpus):
            energy = models.ks2d_interaction_energy(model, x, y, rho0, g)
            results[cpus] = [np.array([energy]), *models.ks2d_interaction_force(model, x, y,
                                                                                 rho0, g)]
    for got, want in zip(results[2], results[1]):
        _assert_same_bits(got, want)


def test_ks2d_worker_reduces_the_odd_strips_and_the_caller_the_even_ones():
    px, py = _strip_cloud(5 * models._STRIP - 3, 1)

    def fold_strip(acc, lo, hi, r2):
        return acc + [(lo // models._STRIP, threading.get_ident())]

    def fold():
        halves = models._fold_upper_strips(px, py, 1.0, fold_strip, list)
        return threading.get_ident(), halves

    for cpus, want_worker in ((2, [1, 3]), (1, [])):
        with _cpus(cpus):
            caller, (even, odd) = _within(60, fold)
        assert [k for k, _ in even] == [0, 2, 4]
        assert [k for k, _ in odd] == [1, 3]
        assert [k for k, ident in even + odd if ident != caller] == want_worker
        assert len({ident for _, ident in even + odd}) == (2 if want_worker else 1)


@pytest.mark.parametrize("failing", [0, 1, 4, 7, 8])
def test_ks2d_strip_errors_reach_the_caller_and_the_next_call_works(failing):
    # the odd strips run on the worker and the even ones in the caller; a
    # failure in either half reaches the caller once the worker has stopped
    px, py = _strip_cloud(9 * models._STRIP - 3, 3)
    fail_at = {failing * models._STRIP}

    def fold_strip(total, lo, hi, r2):
        if lo in fail_at:
            time.sleep(0.2)  # the other half runs as far as it may meanwhile
            raise FloatingPointError(f"strip {failing}")
        return total + float(r2.sum())

    def fold():
        return sum(models._fold_upper_strips(px, py, 1.0, fold_strip, float))

    with _cpus(2):
        with pytest.raises(FloatingPointError, match=f"strip {failing}"):
            _within(60, fold)
        fail_at.clear()
        total = _within(60, fold)
    with _cpus(1):
        assert _within(60, fold) == total


def test_ks2d_caller_failure_stops_the_worker_before_its_last_strip():
    # 9 strips: the worker's half is 1, 3, 5, 7; the caller fails at strip 0
    # while the worker folds strip 1, so the worker sees the stop before strip 3
    px, py = _strip_cloud(9 * models._STRIP - 3, 4)
    worker_started = threading.Event()
    caller_failed = threading.Event()
    folded_by_worker = []

    def fold_strip(total, lo, hi, r2):
        if lo == 0:
            assert worker_started.wait(60)
            caller_failed.set()
            raise FloatingPointError("strip 0")
        folded_by_worker.append(lo // models._STRIP)
        if lo == models._STRIP:
            worker_started.set()
            assert caller_failed.wait(60)
            time.sleep(0.2)  # time for the caller to set the stop
        return total

    with _cpus(2):
        with pytest.raises(FloatingPointError, match="strip 0"):
            _within(60, lambda: models._fold_upper_strips(px, py, 1.0, fold_strip, float))
    # the fold has returned only after the worker stopped
    assert folded_by_worker == [1]


def test_ks2d_worker_thread_starts_on_the_first_2d_kernel_call():
    code = textwrap.dedent("""
        import threading
        import numpy as np
        import lagflow, lagflow.cli
        from lagflow import models
        from lagflow.config import preset_defaults
        from lagflow.experiments import run_experiment
        from lagflow.grids import Grid2D
        assert threading.active_count() == 1
        config = preset_defaults("ks-blowup-1d")
        config.mx, config.t_final, config.plots = 40, 2e-3, False
        run_experiment(config, write_files=False)
        assert threading.active_count() == 1
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)  # 81 nodes: three strips
        models.ks2d_interaction_energy(models.KellerSegel2D(), g.ref_x, g.ref_y,
                                       np.ones(g.node_shape), g)
        assert threading.active_count() == (2 if models._usable_cpus() > 1 else 1)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_ks2d_worker_made_before_a_fork_is_replaced_in_the_child():
    # the child inherits the executor but not its thread: a reused pool would hang
    code = textwrap.dedent("""
        import os, signal
        from unittest import mock
        import numpy as np
        from lagflow import models
        from lagflow.grids import Grid2D
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
        args = (models.KellerSegel2D(), g.ref_x, g.ref_y, np.ones(g.node_shape), g)
        with mock.patch.object(models, "_usable_cpus", return_value=2):
            want = models.ks2d_interaction_energy(*args)
            inherited = models._strip_worker
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                code = 1
                try:
                    same = models.ks2d_interaction_energy(*args) == want
                    pid_now, pool = models._strip_worker
                    code = 0 if same and pid_now == os.getpid() and pool is not inherited[1] else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, status
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_ks2d_concurrent_callers_share_the_worker_with_the_same_bits():
    # four callers queue their odd strips on the one worker thread, with
    # thread switches forced as often as the interpreter allows
    g, x, y, rho0 = _ks2d_cloud(34)
    model = KellerSegel2D()
    with _cpus(1):
        want = models.ks2d_interaction_energy(model, x, y, rho0, g)
    got = []

    def caller():
        for _ in range(5):
            got.append(models.ks2d_interaction_energy(model, x, y, rho0, g))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cpus(2):
            threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 20
