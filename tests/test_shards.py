"""The serializable Monte-Carlo shard protocol.

The contract under test: a shard executed anywhere - serially, in a
worker process, or rebuilt from its JSON encoding in a fresh process -
produces bit-identical samples, and the merge reproduces the
single-process Monte-Carlo run exactly.
"""

import json

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.circuit import Circuit, Sine
from repro.circuit.technology import default_technology
from repro.circuits import five_transistor_ota
from repro.core import DcLevel, monte_carlo_dc, monte_carlo_transient
from repro.errors import AnalysisError
from repro.service import (AnalysisServer, RetryPolicy, ShardResult,
                           ShardSpec, mc_dc_shards, mc_transient_shards,
                           merge_shard_results, run_shard,
                           scatter_monte_carlo_transient)


def _rc():
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.03)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.01)
    return ckt


MC_KW = dict(n=10, t_stop=3e-6, dt=2e-8, window=(2e-6, 3e-6), seed=7,
             chunk_size=4)


class LiveLevel(DcLevel):
    """A measure outside the service type registry: it pickles to a
    local worker process but has no JSON form."""


class TestTransientShards:
    def test_merge_matches_monte_carlo(self):
        ref = monte_carlo_transient(_rc(), [DcLevel("vout", "out")],
                                    **MC_KW)
        specs = mc_transient_shards(
            _rc(), [DcLevel("vout", "out")], MC_KW["n"], MC_KW["t_stop"],
            MC_KW["dt"], chunk_size=MC_KW["chunk_size"],
            window=MC_KW["window"], seed=MC_KW["seed"])
        samples, n_failed, failures = merge_shard_results(
            [run_shard(s) for s in specs])
        assert np.array_equal(samples["vout"], ref.samples["vout"])
        assert n_failed == ref.n_failed
        assert failures == []

    def test_json_round_trip_bit_identical(self):
        ref = monte_carlo_transient(_rc(), [DcLevel("vout", "out")],
                                    **MC_KW)
        specs = mc_transient_shards(
            _rc(), [DcLevel("vout", "out")], MC_KW["n"], MC_KW["t_stop"],
            MC_KW["dt"], chunk_size=MC_KW["chunk_size"],
            window=MC_KW["window"], seed=MC_KW["seed"])
        results = []
        for spec in specs:
            rt = ShardSpec.from_json(spec.to_json())
            assert rt == spec
            assert rt.workload_key() == spec.workload_key()
            # the result round-trips too
            results.append(ShardResult.from_json(run_shard(rt).to_json()))
        samples = merge_shard_results(results).samples
        assert np.array_equal(samples["vout"], ref.samples["vout"])

    def test_parallel_equals_serial(self):
        ref = monte_carlo_transient(_rc(), [DcLevel("vout", "out")],
                                    **MC_KW)
        par = monte_carlo_transient(_rc(), [DcLevel("vout", "out")],
                                    n_workers=2, **MC_KW)
        assert np.array_equal(ref.samples["vout"], par.samples["vout"])
        assert ref.n_failed == par.n_failed

    def test_shards_are_location_independent(self):
        # one shard alone redraws the same deltas as the full plan
        specs = mc_transient_shards(
            _rc(), [DcLevel("vout", "out")], 10, 3e-6, 2e-8,
            chunk_size=4, seed=7)
        from repro.analysis import compile_circuit
        compiled = compile_circuit(_rc())
        full = {k: np.concatenate([s.deltas(compiled)[k] for s in specs])
                for k in specs[0].deltas(compiled)}
        one = ShardSpec.from_dict(specs[1].to_dict()).deltas(compiled)
        for k, v in one.items():
            assert np.array_equal(v, full[k][4:8])


class TestOneExecutionPath:
    """Serial, pooled and pooled-under-a-policy runs share one shard
    path, so nothing the serial run honours may be lost in a worker."""

    KW = dict(MC_KW, n=8)

    def _three_runs(self, circuit, measures, kw=KW):
        return [monte_carlo_transient(circuit, measures, **kw, **extra)
                for extra in ({}, {"n_workers": 2},
                              {"n_workers": 2, "retry": RetryPolicy()})]

    def test_custom_cmin_reaches_every_worker(self):
        compiled = compile_circuit(_rc(), cmin=1e-13)
        meas = [DcLevel("vout", "out")]
        serial, pooled, supervised = self._three_runs(compiled, meas)
        assert np.array_equal(serial.samples["vout"],
                              pooled.samples["vout"])
        assert np.array_equal(serial.samples["vout"],
                              supervised.samples["vout"])
        # the cmin is visible in the samples, so the checks above bite
        default = monte_carlo_transient(_rc(), meas, **self.KW)
        assert not np.array_equal(serial.samples["vout"],
                                  default.samples["vout"])
        with AnalysisServer() as server:
            remote = scatter_monte_carlo_transient(
                [server.url], compiled, meas, **self.KW)
        assert np.array_equal(serial.samples["vout"],
                              remote.samples["vout"])

    def test_compiled_backend_reaches_every_worker(self):
        # on a nonlinear circuit the dense and the default backend
        # round differently, so a worker on the wrong one is visible
        ota = five_transistor_ota(default_technology())
        kw = dict(n=8, t_stop=2e-8, dt=1e-10, seed=11, chunk_size=4)
        meas = [DcLevel("vout", "out")]
        serial, pooled, supervised = self._three_runs(
            compile_circuit(ota, backend="dense"), meas, kw)
        assert np.array_equal(serial.samples["vout"],
                              pooled.samples["vout"])
        assert np.array_equal(serial.samples["vout"],
                              supervised.samples["vout"])
        default = monte_carlo_transient(ota, meas, **kw)
        assert not np.array_equal(serial.samples["vout"],
                                  default.samples["vout"])

    def test_unregistered_measure_runs_pooled(self):
        meas = [LiveLevel("vout", "out")]
        serial, pooled, supervised = self._three_runs(_rc(), meas)
        assert np.array_equal(serial.samples["vout"],
                              pooled.samples["vout"])
        assert np.array_equal(serial.samples["vout"],
                              supervised.samples["vout"])

    def test_live_measure_spec_refuses_json(self):
        (spec, *_) = mc_transient_shards(
            _rc(), [LiveLevel("vout", "out")], 8, 3e-6, 2e-8,
            chunk_size=4)
        d = spec.to_dict()
        assert isinstance(d["measures"][0], LiveLevel)
        with pytest.raises(TypeError):
            json.dumps(d)

    def test_spec_carries_the_compiles_cmin(self):
        kw = dict(chunk_size=4)
        args = ([DcLevel("vout", "out")], 8, 3e-6, 2e-8)
        (planned, *_) = mc_transient_shards(
            compile_circuit(_rc(), cmin=1e-13), *args, **kw)
        (plain, *_) = mc_transient_shards(_rc(), *args, **kw)
        assert planned.cmin == 1e-13
        assert ShardSpec.from_json(planned.to_json()).cmin == 1e-13
        assert plain.cmin == 1e-16  # CMIN_DEFAULT
        assert planned.options["backend"] == "cached"  # the auto pick
        assert plain.options["backend"] is None
        (dc, *_) = mc_dc_shards(compile_circuit(_rc(), cmin=2e-14),
                                {"vout": "out"}, 8, 4)
        assert dc.cmin == 2e-14


class TestDcShards:
    def test_merge_matches_monte_carlo_dc(self):
        ckt = Circuit("div")
        ckt.add_vsource("V1", "in", "0", dc=1.2)
        ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.02)
        ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
        ref = monte_carlo_dc(ckt, {"vout": "out"}, n=20, seed=3,
                             chunk_size=6)
        specs = mc_dc_shards(ckt, {"vout": "out"}, 20, 6, seed=3)
        samples = merge_shard_results(
            [run_shard(ShardSpec.from_json(s.to_json()))
             for s in specs]).samples
        assert np.array_equal(samples["vout"], ref.samples["vout"])


class TestProtocolGuards:
    def _spec(self, **kw):
        base = dict(kind="mc_dc", circuit={"format": 1, "elements": []},
                    n_total=8, start=0, stop=4)
        base.update(kw)
        return ShardSpec(**base)

    def test_version_mismatch_rejected(self):
        d = self._spec().to_dict()
        d["version"] = 99
        with pytest.raises(AnalysisError, match="version"):
            ShardSpec.from_dict(d)
        r = ShardResult(kind="mc_dc", start=0, stop=4,
                        samples={"m": np.zeros(4)}).to_dict()
        r["version"] = 0
        with pytest.raises(AnalysisError, match="version"):
            ShardResult.from_dict(r)

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            self._spec(start=4, stop=4)
        with pytest.raises(ValueError):
            self._spec(stop=9)

    def test_merge_refuses_gaps(self):
        a = ShardResult("mc_dc", 0, 4, {"m": np.zeros(4)},
                        workload_key="k")
        c = ShardResult("mc_dc", 6, 8, {"m": np.zeros(2)},
                        workload_key="k")
        with pytest.raises(AnalysisError,
                           match=r"gap in shard coverage: span \[4, 6\)"):
            merge_shard_results([a, c])

    def test_merge_refuses_mixed_workloads(self):
        a = ShardResult("mc_dc", 0, 4, {"m": np.zeros(4)},
                        workload_key="k1")
        b = ShardResult("mc_dc", 4, 8, {"m": np.zeros(4)},
                        workload_key="k2")
        with pytest.raises(AnalysisError, match="workload"):
            merge_shard_results([a, b])

    def test_merge_out_of_order_input(self):
        a = ShardResult("mc_dc", 0, 2, {"m": np.array([0.0, 1.0])},
                        workload_key="k")
        b = ShardResult("mc_dc", 2, 4, {"m": np.array([2.0, 3.0])},
                        workload_key="k")
        samples = merge_shard_results([b, a]).samples
        assert np.array_equal(samples["m"], [0.0, 1.0, 2.0, 3.0])
