"""One LPTV solve per orbit.

A cached :class:`~repro.analysis.pss.PssResult` keeps the solution for
every declared mismatch parameter
(:func:`~repro.analysis.lptv.orbit_sensitivities`), so a warm request
with a new measure set or covariance costs only the measures.  These
tests pin the solve count, bit-identity against cold and fresh-session
results, the read-only sharing, cache hygiene and the absence of a
reference cycle, on a dense circuit and on a matrix-free one.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.analysis.lptv import PeriodicLinearization
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core import DcLevel
from repro.service import AnalysisRequest, AnalysisSession

PSS_OPTS = PssOptions(n_steps=32, settle_periods=1)


def _rc():
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R1", "in", "mid", 1e3, sigma_rel=0.05)
    ckt.add_resistor("R2", "mid", "out", 1e3, sigma_rel=0.05)
    ckt.add_resistor("RL", "out", "0", 4e3, sigma_rel=0.03)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _ladder(n_sections=130):
    """Loaded RC ladder just above the matrix-free threshold (on the
    sparse backend), with mismatch on every 16th section."""
    ckt = Circuit("memo_ladder")
    ckt.add_vsource("VIN", "n0", "0",
                    wave=Sine(amplitude=0.5, freq=5e6, offset=0.5))
    for k in range(1, n_sections + 1):
        sigma = {"sigma_rel": 0.05} if k % 16 == 0 else {}
        ckt.add_resistor(f"R{k}", f"n{k - 1}", f"n{k}", 100.0, **sigma)
        ckt.add_capacitor(f"C{k}", f"n{k}", "0", 1e-12)
    ckt.add_resistor("RL", f"n{n_sections}", "0", 5e3, sigma_rel=0.02)
    return ckt


#: (circuit builder, drive period, backend, two output nodes, engine)
CASES = {
    "dense": (_rc, 1e-6, None, ("out", "mid"), False),
    "matrix_free": (_ladder, 2e-7, "sparse", ("n130", "n64"), True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture
def solves(monkeypatch):
    """Counts :meth:`PeriodicLinearization.solve` calls."""
    calls = []
    raw = PeriodicLinearization.solve

    def counting(self, injections):
        calls.append(len(injections))
        return raw(self, injections)

    monkeypatch.setattr(PeriodicLinearization, "solve", counting)
    return calls


def _request(case, measures, **kwargs):
    build, period, backend, _, _ = case
    return AnalysisRequest.transient_mismatch(
        build(), measures, period=period, pss_options=PSS_OPTS,
        backend=backend, **kwargs)


def _measure_sets(case):
    a, b = case[3]
    return ([DcLevel("va", a)],
            [DcLevel("vb", b)],
            [DcLevel("va", a), DcLevel("vb", b), DcLevel("dab", a, b)])


def test_warm_requests_reuse_one_solve(case, solves):
    s = AnalysisSession()
    cold, *warm = [s.run(_request(case, m)) for m in _measure_sets(case)]
    assert len(solves) == 1
    assert cold.detail.pss._lin.sparse is case[4]
    assert all(w.detail.pss is cold.detail.pss for w in warm)
    assert all(w.detail.sens.waveforms is cold.detail.sens.waveforms
               for w in warm)
    assert s.stats()["results"]["hits"] == 0


def test_warm_sigmas_match_cold_and_fresh_sessions(case):
    s = AnalysisSession()
    first, second, both = _measure_sets(case)
    cold = s.run(_request(case, first))
    warm = s.run(_request(case, both))
    assert warm.sigma("va") == cold.sigma("va")
    for m in both:
        fresh = AnalysisSession().run(_request(case, [m]))
        assert warm.sigma(m.name) == fresh.sigma(m.name)
        assert warm.sigma(m.name) > 0.0
        np.testing.assert_array_equal(
            warm.detail.contributions(m.name).sensitivities,
            fresh.detail.contributions(m.name).sensitivities)


def test_explicit_injections_resolve(case, solves):
    build, period, backend, _, _ = case
    s = AnalysisSession()
    meas = _measure_sets(case)[0]
    ref = s.transient_mismatch(build(), meas, period=period,
                               pss_options=PSS_OPTS, backend=backend)
    injections = ref.sens.injections[:1]
    sub = s.transient_mismatch(build(), meas, period=period,
                               pss_options=PSS_OPTS, backend=backend,
                               injections=injections)
    assert solves == [ref.sens.n_params, 1]
    assert sub.sens.waveforms is not ref.sens.waveforms
    assert sub.keys == [injections[0].key]


def test_new_covariance_reuses_the_solve(case, solves):
    meas = _measure_sets(case)[2]
    s = AnalysisSession()
    m = s.run(_request(case, meas)).detail.sens.n_params
    rng = np.random.default_rng(3)
    a = rng.standard_normal((m, m))
    cov = a @ a.T * 1e-4 + np.eye(m) * 1e-3
    warm = s.run(_request(case, meas, param_covariance=cov))
    assert len(solves) == 1
    fresh = AnalysisSession().run(_request(case, meas,
                                           param_covariance=cov))
    assert len(solves) == 2
    for m_ in meas:
        assert warm.sigma(m_.name) == fresh.sigma(m_.name)
        np.testing.assert_array_equal(
            warm.detail.contributions(m_.name).sensitivities,
            fresh.detail.contributions(m_.name).sensitivities)


def test_clear_caches_drops_the_solution(case, solves):
    s = AnalysisSession()
    first, second, _ = _measure_sets(case)
    res = s.run(_request(case, first))
    orbit = res.detail.pss
    assert orbit._sens is not None
    orbit.clear_caches()
    assert orbit._sens is None and orbit._lin is None
    again = s.run(_request(case, second))
    assert again.detail.pss is orbit
    assert len(solves) == 2
    assert orbit._sens is not None


def test_pss_store_eviction_drops_the_solution(solves):
    s = AnalysisSession(pss_capacity=1)
    first, second, _ = _measure_sets(CASES["dense"])
    orbit = s.run(_request(CASES["dense"], first)).detail.pss
    s.run(_request(CASES["dense"], first, cmin=2e-18))  # a new orbit
    assert orbit._sens is None
    s.run(_request(CASES["dense"], second))
    assert len(solves) == 3


def test_result_eviction_keeps_a_held_orbits_caches(case, solves):
    s = AnalysisSession(result_capacity=1)
    first, second, both = _measure_sets(case)
    res = s.run(_request(case, first))
    orbit, compiled = res.detail.pss, res.detail.compiled
    compiled.nominal
    s.run(_request(case, second))     # evicts the first result
    assert orbit._lin is not None and orbit._sens is not None
    assert compiled._nominal_state is not None
    s.run(_request(case, both))
    assert len(solves) == 1


def test_shared_arrays_are_read_only(case):
    res = AnalysisSession().run(_request(case, _measure_sets(case)[0]))
    sens = res.detail.sens
    with pytest.raises(ValueError):
        sens.waveforms[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        sens.node_waveforms(case[3][0])[0] += 1.0
    for inj in sens.injections:
        with pytest.raises(ValueError):
            inj.di_dp[0, 0] = 1.0
        if inj.dq_dp is not None:
            with pytest.raises(ValueError):
                inj.dq_dp[0, 0] = 1.0


def test_concurrent_requests_agree(solves):
    """Handler threads of the network front-end share one session: a
    race on the cached solution may solve twice but never mixes
    results."""
    case = CASES["dense"]
    sets = _measure_sets(case)
    want = {m.name: AnalysisSession().run(_request(case, [m])).sigma(m.name)
            for m in sets[2]}
    s = AnalysisSession()
    got, errors = [], []
    del solves[:]

    def worker(i):
        try:
            res = s.run(_request(case, sets[i % 3]))
            got.append({m.name: res.sigma(m.name) for m in sets[i % 3]})
        except Exception as exc:   # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(got) == 12
    assert all(sigma == want[name]
               for sigmas in got for name, sigma in sigmas.items())
    assert 1 <= len(solves) <= 12


def test_dropping_the_session_frees_the_orbit_without_gc(case):
    gc.collect()
    gc.disable()
    try:
        s = AnalysisSession()
        res = None
        for m in _measure_sets(case):
            res = s.run(_request(case, m))
        orbit = weakref.ref(res.detail.pss)
        solution = weakref.ref(res.detail.sens)
        del s, res
        assert orbit() is None
        assert solution() is None
    finally:
        gc.enable()
