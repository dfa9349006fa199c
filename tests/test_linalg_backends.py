"""Backend parity suite and Monte-Carlo robustness regressions.

Parity: the dense, cached-dense and sparse linear-solver backends must
agree to tight tolerance on every analysis (dcop / transient / pss /
lptv) - factorization reuse is an implementation detail, never a
numerical one.

Regressions covered (all previously fatal or wrong):

* a single diverging/singular lane in a batched transient killed the
  whole Monte-Carlo run instead of being isolated and frozen;
* ``MonteCarloResult.n_failed`` counted failed *measures*, not failed
  *lanes*, double-counting lanes that fail twice;
* the measurement-window mask used an absolute ``1e-15`` time
  tolerance, silently dropping grid-edge samples on second-scale runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.montecarlo as mc_mod
from repro.analysis import compile_circuit, pss, periodic_sensitivities
from repro.analysis.dcop import NewtonOptions, dc_operating_point
from repro.analysis.pss import PssOptions
from repro.analysis.transient import TransientOptions, transient
from repro.circuit import Circuit, Sine
from repro.core import DcLevel, monte_carlo_transient
from repro.core.montecarlo import measure_lanes, measurement_window_mask
from repro.errors import SingularMatrixError
from repro.linalg import (SPARSE_AUTO_THRESHOLD, CachedDenseBackend,
                          FactorizationCache, SparseBackend,
                          available_backends, mark_singular_lanes,
                          resolve_backend)
from repro.linalg.backends import DenseLuFactorization

BACKENDS = ["dense", "cached", "sparse"]


def cs_amp(tech):
    """Sine-driven common-source MOS amplifier with mismatch decls."""
    ckt = Circuit("cs_amp")
    ckt.add_vsource("VDD", "vdd", "0", dc=tech.vdd)
    ckt.add_vsource("VG", "g", "0",
                    wave=Sine(amplitude=0.25, freq=1e6, offset=0.7))
    ckt.add_resistor("RL", "vdd", "d", 2e3, sigma_rel=0.02)
    ckt.add_mosfet("M1", "d", "g", "0", "0", w=2e-6, l=0.26e-6, tech=tech)
    ckt.add_capacitor("CL", "d", "0", 20e-15)
    return ckt


def rc_ladder(n_sections):
    """Sine-driven RC ladder: ``n_sections + 1`` nodes, all linear."""
    ckt = Circuit(f"ladder{n_sections}")
    ckt.add_vsource("VIN", "n0", "0",
                    wave=Sine(amplitude=0.5, freq=1e6, offset=0.5))
    for k in range(1, n_sections + 1):
        ckt.add_resistor(f"R{k}", f"n{k-1}", f"n{k}", 1e3)
        ckt.add_capacitor(f"C{k}", f"n{k}", "0", 1e-12)
    return ckt


def floating_cap_circuit():
    """One capacitor node whose Jacobian row vanishes when ``c -> 0``.

    Compiled with ``cmin=0`` so a lane with capacitor delta ``-c`` has
    an exactly singular transient Jacobian.
    """
    ckt = Circuit("floatcap")
    ckt.add_isource("I1", "a", "0", dc=0.0)
    ckt.add_capacitor("C1", "a", "0", 1e-9, sigma_rel=0.1)
    ckt.set_ic(a=0.5)
    return ckt


# ---------------------------------------------------------------------------
# backend selection and plumbing
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_registry(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_auto_picks_by_size(self):
        assert resolve_backend("auto", 10).name == "cached"
        assert resolve_backend(None, 10).name == "cached"
        assert resolve_backend("auto", SPARSE_AUTO_THRESHOLD).name == "sparse"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown linear-solver"):
            resolve_backend("cholesky", 10)

    def test_compile_and_set_backend(self, tech):
        compiled = compile_circuit(cs_amp(tech), backend="sparse")
        assert compiled.backend.name == "sparse"
        assert compiled.set_backend("dense").backend.name == "dense"

    def test_percall_override_does_not_mutate_caller(self, tech):
        """monte_carlo_transient(compiled, backend=...) is a per-call
        override, not a persistent switch of the caller's object."""
        compiled = compile_circuit(cs_amp(tech), backend="sparse")
        monte_carlo_transient(compiled, [DcLevel("vd", "d")], n=3,
                              t_stop=1e-7, dt=1e-9, backend="dense")
        assert compiled.backend.name == "sparse"

    def test_auto_on_large_netlist(self):
        compiled = compile_circuit(rc_ladder(SPARSE_AUTO_THRESHOLD))
        assert compiled.backend.name == "sparse"
        assert compile_circuit(rc_ladder(4)).backend.name == "cached"


class TestDenseLu:
    """``DenseLuFactorization`` calls LAPACK ``getrf``/``getrs``
    directly; it must stay bit-identical to the scipy wrappers."""

    def test_bit_identical_to_scipy_lu(self):
        import scipy.linalg
        rng = np.random.default_rng(2024)
        for i in range(1200):
            n = (16, 17, 40)[i % 3]
            a = rng.standard_normal((n, n))
            fact = DenseLuFactorization(a)
            ref = scipy.linalg.lu_factor(a)
            for trans in (False, True):
                for rhs in (rng.standard_normal(n),
                            rng.standard_normal((n, 3))):
                    x = fact.solve(rhs, trans=trans)
                    want = scipy.linalg.lu_solve(ref, rhs,
                                                 trans=int(trans))
                    assert x.shape == want.shape
                    assert np.array_equal(x, want)

    def test_caller_matrix_untouched(self):
        a = np.array([[0.0, 2.0], [3.0, 1.0]])
        keep = a.copy()
        DenseLuFactorization(a[:, :]).solve(np.ones(2))
        assert np.array_equal(a, keep)

    @pytest.mark.parametrize("a", [np.zeros((3, 3)),
                                   np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   np.array([[1.0, np.nan], [0.0, 1.0]])])
    def test_singular_or_non_finite_raises(self, a):
        with pytest.raises(np.linalg.LinAlgError):
            DenseLuFactorization(a)


# ---------------------------------------------------------------------------
# parity: every backend must produce the same physics
# ---------------------------------------------------------------------------
class TestBackendParity:
    def _per_backend(self, tech, run):
        ref = None
        for be in BACKENDS:
            out = run(compile_circuit(cs_amp(tech), backend=be))
            if ref is None:
                ref = out
            else:
                np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-8)

    def test_dcop(self, tech):
        self._per_backend(tech, lambda c: dc_operating_point(c).x)

    def test_transient(self, tech):
        self._per_backend(
            tech, lambda c: transient(c, t_stop=2e-6, dt=4e-9).signal("d"))

    def test_batched_transient(self, tech):
        deltas = {("M1", "vt0"): np.array([-5e-3, 0.0, 5e-3]),
                  ("RL", "r"): np.array([20.0, 0.0, -20.0])}

        def run(c):
            state = c.make_state(deltas=deltas)
            return transient(c, t_stop=2e-6, dt=4e-9,
                             state=state).signal("d")
        self._per_backend(tech, run)

    def test_pss_and_lptv(self, tech):
        opts = PssOptions(n_steps=128, settle_periods=2)

        def run(c):
            p = pss(c, 1e-6, options=opts)
            sens = periodic_sensitivities(p)
            return sens.node_waveforms("d")
        self._per_backend(tech, run)

    def test_sparse_matches_dense_on_ladder(self):
        sigs = {}
        for be in ("dense", "sparse"):
            c = compile_circuit(rc_ladder(40), backend=be)
            sigs[be] = transient(c, t_stop=1e-6, dt=5e-9).signal("n40")
        np.testing.assert_allclose(sigs["sparse"], sigs["dense"],
                                   rtol=1e-8, atol=1e-12)


# ---------------------------------------------------------------------------
# factorization cache policy
# ---------------------------------------------------------------------------
class TestFactorizationCache:
    def test_reuses_until_contraction_stalls(self):
        cache = FactorizationCache(CachedDenseBackend())
        a = np.diag([2.0, 4.0])
        cache.new_sequence()
        cache.solve(np.array([1.0, 1.0]), lambda: a)
        assert cache.n_factor == 1
        cache.solve(np.array([0.1, 0.1]), lambda: a)   # contracting: reuse
        assert (cache.n_factor, cache.n_reused) == (1, 1)
        cache.solve(np.array([10.0, 10.0]), lambda: a)  # stall: re-factor
        assert cache.n_factor == 2

    def test_singular_jacobian_raises_and_invalidates(self):
        cache = FactorizationCache(CachedDenseBackend())
        with pytest.raises(np.linalg.LinAlgError):
            cache.solve(np.ones(2), lambda: np.zeros((2, 2)))
        cache.solve(np.ones(2), lambda: np.eye(2))  # recovered
        assert cache.n_factor == 1

    def test_singularity_at_stall_refactor_invalidates(self):
        """A lane going singular exactly when a contraction stall
        triggers a re-factor must not stay cached - the lane-isolation
        retry depends on the next solve re-factoring."""
        cache = FactorizationCache(CachedDenseBackend())
        good = np.stack([np.eye(2), 2.0 * np.eye(2)])
        bad = np.stack([np.eye(2), np.zeros((2, 2))])  # lane 1 singular
        rhs = np.ones((2, 2))
        cache.new_sequence()
        cache.solve(rhs, lambda: good)
        cache.solve(0.1 * rhs, lambda: good)           # contracting reuse
        with pytest.raises(np.linalg.LinAlgError):
            cache.solve(10.0 * rhs, lambda: bad)       # stall -> re-factor
        out = cache.solve(rhs, lambda: good)           # repaired retry
        assert np.all(np.isfinite(out))

    def test_age_bound_forces_refactor(self):
        """Sequences accepting on their first iteration never trip the
        contraction test; the age bound must retire the factorization
        anyway so a drifting Jacobian cannot be reused forever."""
        cache = FactorizationCache(CachedDenseBackend())
        a = np.eye(2)
        for _ in range(cache.policy.max_age + 2):
            cache.new_sequence()
            cache.solve(np.full(2, 1e-12), lambda: a)
        assert cache.n_factor >= 2

    def test_constant_jacobian_never_ages_out(self):
        cache = FactorizationCache(CachedDenseBackend(), jac_constant=True)
        a = np.eye(2)
        for _ in range(cache.policy.max_age + 2):
            cache.new_sequence()
            cache.solve(np.full(2, 1e-12), lambda: a)
        assert cache.n_factor == 1

    def test_sparse_multi_rhs_and_transpose(self):
        rng = np.random.default_rng(7)
        a = np.tril(rng.normal(size=(6, 6))) + 6 * np.eye(6)
        b = rng.normal(size=(6, 3))
        fact = SparseBackend().factor(a)
        np.testing.assert_allclose(fact.solve(b), np.linalg.solve(a, b),
                                   atol=1e-12)
        np.testing.assert_allclose(fact.solve(b, trans=True),
                                   np.linalg.solve(a.T, b), atol=1e-12)

    def test_mark_singular_lanes(self):
        jac = np.stack([np.eye(2), np.zeros((2, 2)),
                        np.full((2, 2), np.nan), np.eye(2)])
        failed = np.zeros(4, dtype=bool)
        assert mark_singular_lanes(jac, failed) == 2
        assert failed.tolist() == [False, True, True, False]


# ---------------------------------------------------------------------------
# regression: lane isolation in batched transients
# ---------------------------------------------------------------------------
class TestLaneIsolation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_singular_lane_is_frozen(self, backend):
        compiled = compile_circuit(floating_cap_circuit(), cmin=0.0,
                                   backend=backend)
        deltas = {("C1", "c"): np.array([0.0, -1e-9, 0.0])}
        state = compiled.make_state(deltas=deltas)
        res = transient(compiled, t_stop=1e-6, dt=1e-8, state=state,
                        options=TransientOptions(isolate_lanes=True))
        assert res.failed_lanes.tolist() == [False, True, False]
        v = res.signal("a")
        assert np.all(np.isnan(v[:, 1]))
        np.testing.assert_allclose(v[:, [0, 2]], 0.5, atol=1e-9)
        assert np.all(np.isnan(res.x_final_pad[1]))

    def test_singular_lane_raises_without_isolation(self):
        compiled = compile_circuit(floating_cap_circuit(), cmin=0.0)
        state = compiled.make_state(
            deltas={("C1", "c"): np.array([0.0, -1e-9, 0.0])})
        with pytest.raises(SingularMatrixError):
            transient(compiled, t_stop=1e-6, dt=1e-8, state=state)

    def test_nonconverging_lane_is_frozen(self):
        """A lane needing more step-limited Newton iterations than the
        budget must not take the healthy lanes down with it."""
        ckt = Circuit("rc")
        ckt.add_vsource("V1", "in", "0", dc=1.0)
        ckt.add_resistor("R1", "in", "out", 1e3)
        ckt.add_capacitor("C1", "out", "0", 1e-9)
        compiled = compile_circuit(ckt)
        state = compiled.make_state(
            source_values={"V1": np.array([1.0, 50.0])})
        opts = TransientOptions(
            isolate_lanes=True,
            newton=NewtonOptions(max_step=1.0, max_iterations=10))
        res = transient(compiled, t_stop=1e-6, dt=1e-8, state=state,
                        x0_pad=compiled.initial_padded((2,)),
                        options=opts)
        assert res.failed_lanes.tolist() == [False, True]
        v = res.signal("out")
        assert np.all(np.isnan(v[:, 1]))
        # healthy lane follows the analytic RC charge curve (t = tau, up
        # to the first-step artifact of trap from an inconsistent IC)
        assert v[-1, 0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-2)

    def test_monte_carlo_survives_divergent_lane(self, monkeypatch):
        """End to end: a deliberately broken lane completes the MC run
        and is reported as one failed sample (not one per measure)."""
        compiled = compile_circuit(floating_cap_circuit(), cmin=0.0)

        def rigged(compiled_, n, rng, sigma_scale=1.0, keys=None,
                   param_covariance=None):
            deltas = np.zeros(n)
            deltas[2] = -1e-9            # exactly cancels the capacitor
            return {("C1", "c"): deltas}

        monkeypatch.setattr(mc_mod, "sample_mismatch", rigged)
        measures = [DcLevel("va", "a"), DcLevel("va2", "a")]
        mc = monte_carlo_transient(compiled, measures, n=5,
                                   t_stop=1e-6, dt=1e-8)
        assert mc.n_failed == 1                      # distinct lanes
        assert mc.failed_metrics == {"va": 1, "va2": 1}
        assert np.isnan(mc.samples["va"][2])
        assert mc.stats["va"].mean == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# regression: n_failed lane counting and window tolerance
# ---------------------------------------------------------------------------
class TestMeasureLanes:
    def test_counts_distinct_failed_lanes(self):
        t = np.linspace(0.0, 1.0, 11)
        sig = np.ones((11, 3))
        sig[:, 1] = np.nan                  # lane 1 fails both measures
        measures = [DcLevel("m1", "a"), DcLevel("m2", "a")]
        out = {"m1": np.empty(3), "m2": np.empty(3)}
        assert measure_lanes(t, {"a": sig}, measures, out, 0) == 1
        assert np.isnan(out["m1"][1]) and np.isnan(out["m2"][1])


class TestWindowMask:
    def test_grid_edge_samples_survive_second_scale_runs(self):
        # mirror the Monte-Carlo call pattern: a last-period window
        # (24 p, 25 p) on a grid built from dt = p / 400 - the edge
        # sample lands ulps past the window for second-scale periods
        p = 0.9
        dt = p / 400
        t = dt * np.arange(400 * 25 + 1)
        w = (24 * p, 25 * p)
        assert t[-1] > w[1]                 # the rounding the bug hits
        old = (t >= w[0] - 1e-15) & (t <= w[1] + 1e-15)
        assert old.sum() == 400             # seed behaviour: edge dropped
        mask = measurement_window_mask(t, w, dt)
        assert mask.sum() == 401
        assert mask[-1]

    def test_tolerance_does_not_leak_neighbours(self):
        dt = 1e-9
        t = dt * np.arange(101)
        mask = measurement_window_mask(t, (2e-9, 5e-9), dt)
        assert mask.sum() == 4              # samples at 2, 3, 4, 5 ns
