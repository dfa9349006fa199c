"""The application layer: AnalysisSession caches, requests, job queue.

Session tests run on a cheap sine-driven RC so the suite stays fast;
the comparator-scale cache win is measured by
``benchmarks/bench_service_cache.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import compile_circuit, pss
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core import (DcLevel, dc_mismatch_analysis,
                        transient_mismatch_analysis)
from repro.core.analysis import run_dc_mismatch, run_transient_mismatch
from repro.errors import AnalysisError
from repro.service import (AnalysisRequest, AnalysisResult,
                           AnalysisSession, JobQueue)

PSS_OPTS = PssOptions(n_steps=64, settle_periods=2)


def _rc(r=1e3):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", r, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _divider(r1=1e3):
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", dc=1.2)
    ckt.add_resistor("R1", "in", "out", r1, sigma_rel=0.02)
    ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
    return ckt


MEAS = [DcLevel("vout", "out")]


class TestSessionCaches:
    def test_compile_and_pss_cache_hits(self):
        s = AnalysisSession()
        r1 = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                  pss_options=PSS_OPTS)
        # fresh but content-equal circuit object: everything hits
        r2 = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                  pss_options=PSS_OPTS)
        st = s.stats()
        assert st["compiled"]["hits"] == 1
        assert st["pss"]["hits"] == 1
        assert r1.sigma("vout") == r2.sigma("vout")
        assert r2.pss is r1.pss

    def test_changed_value_misses(self):
        s = AnalysisSession()
        s.transient_mismatch(_rc(), MEAS, period=1e-6,
                             pss_options=PSS_OPTS)
        s.transient_mismatch(_rc(r=2e3), MEAS, period=1e-6,
                             pss_options=PSS_OPTS)
        st = s.stats()
        assert st["compiled"]["hits"] == 0
        assert st["pss"]["hits"] == 0

    def test_custom_state_bypasses_pss_cache(self):
        s = AnalysisSession()
        compiled = s.compile(_rc())
        state = compiled.make_state(deltas={("R", "r"): 10.0})
        s.transient_mismatch(compiled, MEAS, period=1e-6, state=state,
                             pss_options=PSS_OPTS)
        assert s.stats()["pss"]["size"] == 0

    def test_cold_parity_with_engine(self):
        """The session path is bit-identical to the direct engine path."""
        wrapped = AnalysisSession().transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        compiled = compile_circuit(_rc())
        direct = run_transient_mismatch(
            compiled, MEAS, pss(compiled, 1e-6, options=PSS_OPTS))
        assert wrapped.sigma("vout") == direct.sigma("vout")
        assert wrapped.nominal["vout"] == direct.nominal["vout"]

    def test_free_function_routes_through_default_session(self):
        from repro.service import default_session
        before = default_session().stats()["compiled"]["misses"]
        transient_mismatch_analysis(_rc(r=7e3), MEAS, period=1e-6,
                                    pss_options=PSS_OPTS)
        assert (default_session().stats()["compiled"]["misses"]
                == before + 1)

    def test_dc_parity(self):
        wrapped = dc_mismatch_analysis(_divider(), {"vout": "out"})
        direct = run_dc_mismatch(compile_circuit(_divider()),
                                 {"vout": "out"})
        assert wrapped.sigma("vout") == direct.sigma("vout")

    def test_runtime_breakdown_patched(self):
        s = AnalysisSession()
        res = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                   pss_options=PSS_OPTS)
        bd = res.runtime_breakdown
        assert set(bd) == {"pss", "lptv", "measures"}
        assert bd["pss"] > 0.0
        assert res.runtime_seconds >= bd["pss"]


class TestCacheHygiene:
    def test_eviction_bounds_and_cascades(self):
        s = AnalysisSession(compiled_capacity=2)
        first = s.compile(_rc(r=1e3))
        first.nominal  # populate the cache eviction must drop
        assert first._nominal_state is not None
        s.compile(_rc(r=2e3))
        s.compile(_rc(r=3e3))  # evicts the LRU entry (first)
        assert s.stats()["compiled"]["size"] == 2
        assert first._nominal_state is None

    def test_result_store_bounded(self):
        s = AnalysisSession(result_capacity=2)
        for r1 in (1e3, 2e3, 3e3):
            s.run(AnalysisRequest.dc_mismatch(_divider(r1),
                                              {"vout": "out"}))
        assert s.stats()["results"]["size"] == 2

    def test_clear_cascades(self):
        s = AnalysisSession()
        compiled = s.compile(_rc())
        compiled.nominal
        res = s.transient_mismatch(compiled, MEAS, period=1e-6,
                                   pss_options=PSS_OPTS)
        assert res.pss._lin is not None
        s.clear()
        assert all(v["size"] == 0 for v in s.stats().values())
        assert compiled._nominal_state is None
        assert res.pss._lin is None


class TestRequests:
    def test_run_memoizes(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        a = s.run(req)
        b = s.run(AnalysisRequest.dc_mismatch(_divider(),
                                              {"vout": "out"}))
        assert not a.from_cache and b.from_cache
        assert a.summary == b.summary
        assert a.request_key == b.request_key == req.key()

    def test_json_round_trip_key_equal(self):
        req = AnalysisRequest.transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        rt = AnalysisRequest.from_json(req.to_json())
        assert rt == req
        assert rt.key() == req.key()

    def test_result_round_trip(self):
        s = AnalysisSession()
        res = s.run(AnalysisRequest.dc_mismatch(_divider(),
                                                {"vout": "out"}))
        rt = AnalysisResult.from_json(res.to_json())
        assert rt.summary == res.summary
        assert rt.sigma("vout") == res.sigma("vout")
        assert rt.detail is None

    def test_mc_request_matches_free_function(self):
        from repro.core import monte_carlo_transient
        ref = monte_carlo_transient(_rc(), MEAS, n=6, t_stop=2e-6,
                                    dt=2e-8, window=(1e-6, 2e-6),
                                    seed=5, chunk_size=3)
        res = AnalysisSession().run(AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n=6, t_stop=2e-6, dt=2e-8, window=(1e-6, 2e-6),
            seed=5, chunk_size=3))
        assert res.sigma("vout") == ref.sigma("vout")
        assert res.mean("vout") == ref.mean("vout")
        assert np.array_equal(res.detail.samples["vout"],
                              ref.samples["vout"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError, match="kind"):
            AnalysisRequest(kind="nope", circuit={})

    def test_unknown_metric_message(self):
        s = AnalysisSession()
        res = s.run(AnalysisRequest.dc_mismatch(_divider(),
                                                {"vout": "out"}))
        with pytest.raises(AnalysisError, match="available"):
            res.sigma("nope")


class TestJobQueue:
    def test_inline_queue_shares_session(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        with JobQueue(session=s) as q:
            a = q.submit(req).result()
            b = q.submit(req).result()
        assert not a.from_cache and b.from_cache
        assert a.detail is not None  # inline keeps the rich result

    def test_inline_error_propagates(self):
        bad = AnalysisRequest.dc_mismatch(
            Circuit("empty"), {"v": "x"})
        with JobQueue(session=AnalysisSession()) as q:
            job = q.submit(bad)
            with pytest.raises(Exception):
                job.result()

    def test_worker_pool_matches_inline(self):
        req = AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n=6, t_stop=2e-6, dt=2e-8,
            window=(1e-6, 2e-6), seed=5, chunk_size=3)
        inline = AnalysisSession().run(req)
        with JobQueue(n_workers=2) as q:
            remote = q.map([req])[0]
        assert remote.summary == inline.summary
        assert remote.detail is None


class TestImportLayering:
    def test_domain_layer_never_imports_service(self):
        tools = Path(__file__).parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_import_layering import violations
        finally:
            sys.path.remove(str(tools))
        root = Path(__file__).parent.parent
        assert violations(root) == []

    def test_process_pools_only_in_the_job_queue(self, tmp_path):
        tools = Path(__file__).parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_import_layering import violations
        finally:
            sys.path.remove(str(tools))
        service = tmp_path / "src" / "repro" / "service"
        core = tmp_path / "src" / "repro" / "core"
        service.mkdir(parents=True)
        core.mkdir(parents=True)
        pool = "from concurrent.futures import ProcessPoolExecutor\n"
        (service / "jobs.py").write_text(pool)
        (core / "montecarlo.py").write_text(pool)
        found = violations(tmp_path, only="process-pools-in-jobs")
        assert len(found) == 1
        assert "montecarlo.py:1: [process-pools-in-jobs]" in found[0]
