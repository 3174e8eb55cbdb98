"""Functionals: oracles, scaling, coercivity, translation invariance."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggkdv import functionals as fn, model, spectral as sp
from ggkdv.model import CoefficientSet

from conftest import (decay_marched_state, make_sine_state, observe_one,
                      seeded_or_marched_state)
from calculus_reference import StateCalculus
import functionals_reference
from functionals_reference import energy, hs_seminorm_sq
from spectral_reference import (derivative, inner, padded_samples, shift,
                                zeros)

EPS = np.finfo(float).eps
# g1 and g2 (and h2 off the admissible branches) are summed monomial by
# monomial, where the reference groups them by hand: the two agree to within
# REGROUP_ULPS * eps * sum over monomials of |coefficient * integral|.
REGROUP_ULPS = 4.0
# The seminorms sum int u_n^2 and int v_n^2 as two pairings, where the
# reference weighs |u|^2 + |v|^2 in one sum: within SEMINORM_ULPS * eps
# relative (2.75 measured).
SEMINORM_ULPS = 4.0
BRANCHES = {
    "coupled": model.validate_coefficients(
        CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0)),
    "uncoupled": model.validate_coefficients(
        CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=1.0)),
    "extended": model.ValidatedCoefficients(
        **CoefficientSet(a1=0.3, a2=0.7, a3=0.4, k=1.0).to_dict()),
}


def record(state, c, n_max=4):
    """The record of one state, as `gg run` observes it."""
    return observe_one(state, c, (), n_max)[0]


def rich_state(grid, amp=1.0, seed=11):
    """Multi-mode zero-mean state whose cubic functionals do not vanish."""
    rng = np.random.default_rng(seed)
    x = grid.nodes()
    u = amp * (np.sin(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x)
               + 0.2 * rng.standard_normal() * np.sin(6 * np.pi * x))
    v = amp * (np.cos(2 * np.pi * x) - 0.3 * np.sin(4 * np.pi * x))
    return model.reduce_mean(sp.from_samples(grid, u), sp.from_samples(grid, v))


class TestEnergyAndSeminorms:
    def test_energy_of_unit_modes(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64, amp=1.0)
        # (1/2)(int sin^2 + int cos^2) = 1/2
        assert energy(st, coeffs_coupled) == pytest.approx(0.5, abs=1e-14)

    def test_seminorm_zero_is_l2_norm_sq(self, grid64):
        st = make_sine_state(grid64, amp=2.0)
        assert hs_seminorm_sq(st, 0) == pytest.approx(4.0, abs=1e-13)

    def test_single_mode_seminorm_ladder(self, grid128):
        # u = A sin(2 pi x): int (d^n u)^2 = A^2 (2 pi)^(2n) / 2
        A = 0.3
        x = grid128.nodes()
        st = model.reduce_mean(
            sp.from_samples(grid128, A * np.sin(2 * np.pi * x)),
            zeros(grid128))
        for n in range(5):
            expect = 0.5 * A ** 2 * (2 * np.pi) ** (2 * n)
            assert hs_seminorm_sq(st, n) == pytest.approx(expect, rel=1e-12)

    def test_seminorm_agrees_with_quadrature_route(self, grid128):
        st = rich_state(grid128)
        for n in range(4):
            un, vn = derivative(st.u, n), derivative(st.v, n)
            direct = inner(un, un) + inner(vn, vn)
            assert hs_seminorm_sq(st, n) == pytest.approx(direct, rel=1e-13)

    def test_negative_order_rejected(self, grid64):
        with pytest.raises(ValueError):
            hs_seminorm_sq(make_sine_state(grid64), -1)


class TestLyapunovH1:
    def test_f1_single_mode_oracle(self, grid128, coeffs_coupled):
        # u = A sin(2 pi x), v = 0: f1 = A^2 (2 pi)^2 / 2, g1 = 0
        A = 0.25
        x = grid128.nodes()
        st = model.reduce_mean(
            sp.from_samples(grid128, A * np.sin(2 * np.pi * x)),
            zeros(grid128))
        rec = record(st, coeffs_coupled)
        f1, g1 = rec["f1"], rec["g1"]
        assert f1 == pytest.approx(0.5 * A ** 2 * (2 * np.pi) ** 2, rel=1e-12)
        assert g1 == pytest.approx(0.0, abs=1e-15)

    def test_g1_dense_quadrature_oracle(self, grid128, coeffs_coupled):
        st = rich_state(grid128)
        m = 4096
        u = padded_samples(st.u, m)
        v = padded_samples(st.v, m)
        c = coeffs_coupled
        expect = float(np.mean(-(u ** 3 + v ** 3) / 3
                               - c.a1 * u * v ** 2 - c.a2 * u ** 2 * v))
        g1 = record(st, c)["g1"]
        assert g1 == pytest.approx(expect, rel=1e-12)

    def test_f1_coercive_between_sobolev_bounds(self, grid128, coeffs_coupled):
        st = rich_state(grid128)
        f1 = record(st, coeffs_coupled)["f1"]
        s1 = hs_seminorm_sq(st, 1)
        a3 = abs(coeffs_coupled.a3)
        assert (1 - a3) * s1 - 1e-12 <= f1 <= (1 + a3) * s1 + 1e-12


class TestLyapunovH2:
    def test_f2_matches_seminorm_when_uncoupled(self, grid128, coeffs_uncoupled):
        st = rich_state(grid128)
        f2 = record(st, coeffs_uncoupled)["f2"]
        assert f2 == pytest.approx(hs_seminorm_sq(st, 2), rel=1e-13)

    def test_g2_dense_quadrature_oracle(self, grid128, coeffs_coupled):
        st = rich_state(grid128)
        m = 4096
        c = coeffs_coupled
        u = padded_samples(st.u, m)
        v = padded_samples(st.v, m)
        u1 = padded_samples(derivative(st.u), m)
        v1 = padded_samples(derivative(st.v), m)
        expect = float(np.mean(-(5 / 3) * (
            u1 ** 2 * u + v1 ** 2 * v
            + c.a1 * (2 * u1 * v1 * v + v1 ** 2 * u)
            + c.a2 * (2 * u1 * v1 * u + u1 ** 2 * v))))
        g2 = record(st, c)["g2"]
        assert g2 == pytest.approx(expect, rel=1e-12)

    def test_h2_vanishes_on_both_admissible_branches(
            self, grid128, coeffs_coupled, coeffs_uncoupled):
        st = rich_state(grid128)
        assert record(st, coeffs_coupled)["h2"] == 0.0
        assert record(st, coeffs_uncoupled)["h2"] == 0.0

    def test_h2_nonzero_outside_the_certified_regime(self, grid128):
        c = model.ValidatedCoefficients(
            **CoefficientSet(a1=0.3, a2=0.7, a3=0.4, k=1.0).to_dict())
        st = rich_state(grid128)
        assert abs(record(st, c)["h2"]) > 1e-6


class TestStructure:
    def test_quadratics_scale_quadratically_cubics_cubically(
            self, grid128, coeffs_coupled):
        c = coeffs_coupled
        big, small = rich_state(grid128, amp=1.0), rich_state(grid128, amp=0.5)
        rb, rs = record(big, c), record(small, c)
        assert rb["f1"] / rs["f1"] == pytest.approx(4.0, rel=1e-12)
        assert rb["g1"] / rs["g1"] == pytest.approx(8.0, rel=1e-10)
        assert rb["f2"] / rs["f2"] == pytest.approx(4.0, rel=1e-12)
        assert rb["g2"] / rs["g2"] == pytest.approx(8.0, rel=1e-10)

    def test_translation_invariance(self, grid128, coeffs_coupled):
        st = rich_state(grid128)
        moved = model.SimState(u=shift(st.u, 0.3), v=shift(st.v, 0.3),
                               t=st.t, mean_u=st.mean_u, mean_v=st.mean_v)
        rec = record(st, coeffs_coupled)
        rec_moved = record(moved, coeffs_coupled)
        for key, val in rec.items():
            assert rec_moved[key] == pytest.approx(
                val, rel=1e-10, abs=1e-12), key

    def test_record_column_order(self, grid64, coeffs_coupled):
        rec = record(make_sine_state(grid64), coeffs_coupled,
                                   n_max=2)
        assert list(rec) == [
            "t", "energy", "seminorm_sq_0", "seminorm_sq_1", "seminorm_sq_2",
            "f1", "g1", "f2", "g2", "h2"]


class TestRecordAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(n_points=st.sampled_from([32, 64, 128]),
           seed=st.integers(min_value=0, max_value=3),
           marched=st.booleans(),
           branch=st.sampled_from(sorted(BRANCHES)))
    def test_record_equals_hand_grouped_functionals(self, n_points, seed,
                                                   marched, branch):
        state = seeded_or_marched_state(n_points, seed, marched)
        c = BRANCHES[branch]
        rec = record(state, c)
        assert rec["energy"] == energy(state, c)
        for n in range(5):
            expected = hs_seminorm_sq(state, n)
            assert abs(rec[f"seminorm_sq_{n}"] - expected) <= (
                SEMINORM_ULPS * EPS * expected), n
        f1, g1 = functionals_reference.lyapunov_h1(state, c)
        f2, g2, h2 = functionals_reference.lyapunov_h2(state, c)
        assert rec["f1"] == f1
        assert rec["f2"] == f2
        regrouped = {"g1": g1, "g2": g2}
        if branch == "extended":
            regrouped["h2"] = h2
        else:
            assert rec["h2"] == h2 == 0.0
        calc = StateCalculus(state, c)
        for name, expected in regrouped.items():
            scale = sum(abs(calc.value([m]))
                        for m in fn.lyapunov_monomials(c)[name])
            assert abs(rec[name] - expected) <= (
                REGROUP_ULPS * EPS * scale), name

    def test_record_calls_no_rhs_and_resamples_nothing_twice(
            self, monkeypatch):
        cfg, c, state = decay_marched_state()
        expected = record(state, c, cfg.n_max)
        batches = []
        real_rows = fn.padded_samples

        def forbidden_rhs(*args):
            raise AssertionError("a record needs no time derivative")

        def counting_rows(coeffs, bands, m):
            batches.append((m, [row.tobytes() for row in coeffs]))
            return real_rows(coeffs, bands, m)

        monkeypatch.setattr(fn, "rhs", forbidden_rhs)
        monkeypatch.setattr(fn, "padded_samples", counting_rows)
        assert record(state, c, cfg.n_max) == expected
        sizes = [m for m, _ in batches]
        assert batches and len(sizes) == len(set(sizes))
        for m, rows in batches:  # no (field, m) sampled twice
            assert len(rows) == len(set(rows)), m
