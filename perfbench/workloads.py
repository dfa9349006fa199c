"""The four workloads.

Each workload turns the seed into a stream of operations (plain
tuples, so a traced run can replay exactly the operations an untraced
pass ran) and executes them through the program's public entry
points.  Every operation returns :class:`Record` values: one per
request, with its client-side latency, its class and the outcome of
its correctness checks.

``comparator_design_loop``, ``logic_path_validation`` and
``ladder_large_state`` share one template (:class:`DesignLoop`): design
points analysed cold (new circuit, empty ``AnalysisSession``), then
warm with new measure sets, then replayed from the memo, interleaved
with Monte-Carlo runs of the same testbench that price the method's
accuracy.  ``service_mix`` sends a seeded request mix to two daemon
processes over loopback HTTP.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.circuits as paper_circuits
from repro.analysis.pss import PssOptions
from repro.circuit import default_technology
from repro.core.measures import DcLevel, EdgeDelay
from repro.core.montecarlo import monte_carlo_transient
from repro.service import (AnalysisRequest, AnalysisSession,
                           RemoteSession, RetryPolicy, ScatterPolicy,
                           WorkerPool, scatter_monte_carlo_transient)
from repro.stats import describe

from . import circuits

SRC = Path(__file__).resolve().parent.parent / "src"

STORES = ("compiled", "pss", "results")


@dataclass
class Record:
    """One request as the client saw it."""

    kind: str            # cold | warm | memo | mc | ac | job
    latency: float       # seconds, client side
    ok: bool = True
    lanes: int = 0       # Monte-Carlo lanes finished
    lanes_failed: int = 0
    why: str = ""        # first failed check


def _add_stats(total: dict, stats: dict) -> None:
    for store in STORES:
        for k in ("hits", "misses"):
            key = f"{k}.{store}"
            total[key] = total.get(key, 0) + stats[store][k]


class Workload:
    """Interface the runner drives."""

    name = ""

    def startup(self) -> None:
        """One untimed throwaway analysis, so lazy library start-up is
        charged to set-up and not to the first timed operation."""

    def prepare(self, seed: int) -> None:
        """Generate the inputs from *seed* (and start daemons); may run
        several times, the last one is used."""

    def operations(self, seed: int):
        """Endless, seed-determined stream of operation tuples."""
        raise NotImplementedError

    def starts_cycle(self, op) -> bool:
        """Whether *op* opens a new cycle of the mix; the measured loop
        ends only at cycle boundaries, so every run has the same mix."""
        return True

    def execute(self, op) -> list[Record]:
        raise NotImplementedError

    def finish(self) -> tuple[list, dict]:
        """End-of-run checks as ``(description, passed)`` pairs, and
        details."""
        return [], {}

    # -- the Monte-Carlo reference (``reference/mc_reference.json``) ----
    #: Key into the reference file.
    ref_key = ""
    #: Monte-Carlo lanes per run and per chunk.
    mc_n = 16
    mc_chunk = 16

    def mc_testbench(self):
        """The circuit the timed Monte-Carlo runs analyse."""
        raise NotImplementedError

    def mc_measures(self) -> list:
        raise NotImplementedError

    def mc_settings(self) -> dict:
        """``t_stop``, ``dt``, ``window`` (and ``backend``) of the timed
        Monte-Carlo runs, as JSON values."""
        raise NotImplementedError

    def reference_key(self) -> dict:
        """What the reference sigma depends on besides the testbench
        (fixed in this file), N and the seed: measures and settings."""
        return json.loads(json.dumps({
            "measures": [m.name for m in self.mc_measures()],
            **self.mc_settings(), "chunk_size": self.mc_chunk}))

    def load_reference(self) -> dict:
        """This workload's reference entry; refuses to run on one made
        for another testbench or other settings."""
        path = Path(__file__).resolve().parent / "reference" \
            / "mc_reference.json"
        with open(path) as fh:
            ref = json.load(fh)[self.ref_key]
        if ref["mc"]["key"] != self.reference_key():
            raise RuntimeError(
                f"{self.name}: the committed Monte-Carlo reference was "
                f"made for {ref['mc']['key']}, this workload runs "
                f"{self.reference_key()}")
        return ref

    def deviation(self) -> "tuple[float, int] | None":
        """``(relative deviation of the method from the reference MC
        sigma, reference N)``, once the method has run."""
        return None

    def counters(self) -> dict:
        """Cumulative cache / dispatch counters."""
        return {}

    def extra_rss_kb(self) -> int:
        return 0

    def close(self) -> None:
        pass


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# in-process design loops
# ---------------------------------------------------------------------------
class DesignLoop(Workload):
    """Cold / warm / memo requests on design points, plus Monte-Carlo.

    Subclasses define the testbench (:meth:`build`), the request
    options, the cold measure set and the warm measure sets, and the
    Monte-Carlo settings, which must equal those of the committed
    reference (``reference/mc_reference.json``).
    """

    #: Monte-Carlo pool workers (None: in process) and supervision.
    mc_workers: "int | None" = None
    mc_retry = False

    def __init__(self):
        self.ref: dict = {}
        self.mc_tb = None
        self._retired: dict = {}
        self.session: AnalysisSession | None = None
        self.point = None          # (point id, circuit, cold request)
        self.cold_sigma: dict = {}
        self.method_sigma: dict | None = None
        #: Monte-Carlo samples by seed (a traced replay repeats seeds)
        self.mc_samples: dict = {}

    # -- subclass surface ----------------------------------------------
    def point_params(self, rng, index: int):
        """Design parameters of point *index* (0: the reference
        testbench)."""
        return None

    def build(self, params):
        raise NotImplementedError

    def cold_measures(self) -> list:
        raise NotImplementedError

    def warm_sets(self) -> list:
        raise NotImplementedError

    def request(self, circuit, measures):
        raise NotImplementedError

    def check_cold(self, sigma: dict, params) -> str:
        return ""

    # -- template ------------------------------------------------------
    def startup(self) -> None:
        ckt = circuits.rc_lowpass(name="warmup")
        AnalysisSession().run(AnalysisRequest.transient_mismatch(
            ckt, [DcLevel("vout", "out")], period=1e-6,
            pss_options=PssOptions(n_steps=32, settle_periods=1)))
        monte_carlo_transient(ckt, [DcLevel("vout", "out")], n=2,
                              t_stop=2e-6, dt=2e-8, chunk_size=2)

    def prepare(self, seed: int) -> None:
        self.mc_tb = self.mc_testbench()
        self.ref = self.load_reference()

    def operations(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        index = 0
        while True:
            params = self.point_params(rng, index)
            yield ("cold", index, params)
            # the Monte-Carlo run separates the first warm request from
            # the others, so warm latencies sample two moments per cycle
            yield ("warm", index, 0)
            yield ("mc", int(rng.integers(2 ** 31)))
            for k in range(1, len(self.warm_sets())):
                yield ("warm", index, k)
            yield ("memo", index)
            index += 1

    def starts_cycle(self, op) -> bool:
        return op[0] == "cold"

    def _retire(self) -> None:
        if self.session is not None:
            _add_stats(self._retired, self.session.stats())
        self.session = None

    def counters(self) -> dict:
        total = dict(self._retired)
        if self.session is not None:
            _add_stats(total, self.session.stats())
        return total

    def execute(self, op) -> list[Record]:
        kind = op[0]
        if kind == "cold":
            return [self._cold(op[1], op[2])]
        if kind == "warm":
            return [self._warm(op[1], op[2])]
        if kind == "memo":
            return [self._memo(op[1])]
        return [self._mc(op[1])]

    def _cold(self, index, params) -> Record:
        self._retire()
        t0 = time.perf_counter()
        circuit = self.build(params)
        request = self.request(circuit, self.cold_measures())
        self.session = AnalysisSession()
        result = self.session.run(request)
        latency = time.perf_counter() - t0
        sigma = {m.name: result.sigma(m.name)
                 for m in self.cold_measures()}
        self.point = (index, circuit, request)
        self.cold_sigma[index] = sigma
        if params is None:
            self.method_sigma = sigma
        why = ("served from the memo" if result.from_cache
               else self.check_cold(sigma, params))
        return Record("cold", latency, ok=not why, why=why)

    def _same_sigma(self, result, index) -> str:
        for name, value in self.cold_sigma[index].items():
            if result.sigma(name) != value:
                return (f"sigma({name}) {result.sigma(name)!r} differs "
                        f"from the cold {value!r}")
        return ""

    def _warm(self, index, k) -> Record:
        _, circuit, _ = self.point
        t0 = time.perf_counter()
        request = self.request(circuit, self.warm_sets()[k])
        result = self.session.run(request)
        latency = time.perf_counter() - t0
        why = ("served from the memo" if result.from_cache
               else self._same_sigma(result, index))
        return Record("warm", latency, ok=not why, why=why)

    def _memo(self, index) -> Record:
        _, _, request = self.point
        t0 = time.perf_counter()
        result = self.session.run(request)
        latency = time.perf_counter() - t0
        why = ("memo missed" if not result.from_cache
               else self._same_sigma(result, index))
        return Record("memo", latency, ok=not why, why=why)

    def _mc(self, seed) -> Record:
        settings = self.mc_settings()
        t0 = time.perf_counter()
        request = AnalysisRequest.monte_carlo_transient(
            self.mc_tb, self.mc_measures(), self.mc_n,
            settings["t_stop"], settings["dt"],
            window=tuple(settings["window"]), seed=seed,
            chunk_size=self.mc_chunk, backend=settings.get("backend"),
            n_workers=self.mc_workers,
            retry=RetryPolicy() if self.mc_retry else None)
        # a session of its own: a replayed seed must not hit the memo
        session = AnalysisSession()
        result = session.run(request)
        latency = time.perf_counter() - t0
        _add_stats(self._retired, session.stats())
        detail = result.detail
        self.mc_samples[seed] = detail.samples
        why = ""
        if detail.n_failed:
            why = f"{detail.n_failed} Monte-Carlo lanes frozen"
        elif result.from_cache:
            why = "Monte-Carlo run served from the memo"
        return Record("mc", latency, ok=not why,
                      lanes=self.mc_n - detail.n_failed,
                      lanes_failed=detail.n_failed, why=why)

    def mc_testbench(self):
        return self.build(None)

    def mc_measures(self) -> list:
        return self.cold_measures()

    def deviation(self):
        if self.method_sigma is None:
            return None
        ref = self.ref["mc"]
        dev = max(_rel(self.method_sigma[name], ref["sigma"][name])
                  for name in ref["sigma"])
        return dev, ref["n"]

    def pooled_mc(self) -> dict:
        """All in-run Monte-Carlo samples per measure."""
        runs = list(self.mc_samples.values())
        return {name: np.concatenate([r[name] for r in runs])
                for name in runs[0]} if runs else {}

    def finish(self):
        details = {"points": len(self.cold_sigma),
                   "method_sigma": self.method_sigma,
                   "mc_in_run": {name: {"n": int(vals.size),
                                        "sigma": describe(vals).std}
                                 for name, vals in self.pooled_mc().items()}}
        return [], details


class ComparatorDesignLoop(DesignLoop):
    """Paper Fig. 9 / Table II row 1: StrongARM offset testbench."""

    name = "comparator_design_loop"
    ref_key = "comparator"
    n_steps = 100

    def __init__(self):
        super().__init__()
        self.tech = default_technology()
        self.period = 2e-9
        self.settle = 30

    def point_params(self, rng, index):
        if index == 0:
            return None
        base = {"w_tail": 4.0e-6, "w_in": 2.0e-6, "w_nlatch": 1.6e-6,
                "w_platch": 1.2e-6, "w_pre": 0.6e-6}
        return {k: float(v * rng.uniform(0.92, 1.08))
                for k, v in base.items()}

    def build(self, params):
        tb = paper_circuits.strongarm_offset_testbench(
            self.tech, period=self.period, **(params or {}))
        self.settle = tb.settle_cycles // 2
        return tb.circuit

    def cold_measures(self):
        return [DcLevel("vos", "vos")]

    def warm_sets(self):
        vos = DcLevel("vos", "vos")
        return [[vos, DcLevel("v_out", "outp", "outn")],
                [vos, DcLevel("v_mid", "midp", "midn")],
                [vos, DcLevel("v_tail", "tail")]]

    def request(self, circuit, measures):
        return AnalysisRequest.transient_mismatch(
            circuit, measures, period=self.period,
            pss_options=PssOptions(n_steps=self.n_steps,
                                   settle_periods=self.settle))

    def mc_settings(self):
        p = self.period
        return {"t_stop": 20 * p, "dt": p / self.n_steps,
                "window": [19 * p, 20 * p]}


class LogicPathValidation(DesignLoop):
    """Paper Fig. 7 / Table I-II row 2: logic path with X late.

    The Monte-Carlo runs on a process pool under a fault-free
    ``RetryPolicy``; the method's sigmas must lie inside the chi-square
    CI of the in-run Monte-Carlo sigma.
    """

    name = "logic_path_validation"
    ref_key = "logic_path"
    mc_n = 80
    mc_chunk = 40
    mc_retry = True
    #: Confidence of the in-run CI check (see README: 95 % across the
    #: whole benchmark's runs, Bonferroni-split).
    ci_confidence = 0.999

    #: One pool worker per shard.
    mc_workers = mc_n // mc_chunk

    def __init__(self):
        super().__init__()
        self.tech = default_technology()

    def build(self, params):
        tb = paper_circuits.logic_path_testbench(self.tech,
                                                 late_input="X")
        self.tb = tb
        return tb.circuit

    def cold_measures(self):
        vth = 0.5 * self.tech.vdd
        return [EdgeDelay("delay_A", "X", "A", vth),
                EdgeDelay("delay_B", "X", "B", vth)]

    def warm_sets(self):
        return [self.cold_measures() + [DcLevel("v_A", "A")],
                self.cold_measures() + [DcLevel("v_B", "B")]]

    def request(self, circuit, measures):
        return AnalysisRequest.transient_mismatch(
            circuit, measures, period=self.tb.period,
            pss_options=PssOptions(n_steps=800, settle_periods=2))

    def mc_settings(self):
        p = self.tb.period
        return {"t_stop": 2 * p, "dt": p / 800, "window": [p, 2 * p]}

    def finish(self):
        checks, details = super().finish()
        if self.method_sigma is None or not self.mc_samples:
            return checks, details
        for name, vals in self.pooled_mc().items():
            st = describe(vals, self.ci_confidence)
            prop = self.method_sigma[name]
            details["mc_in_run"][name]["ci"] = [st.std_ci_low,
                                                st.std_ci_high]
            checks.append((
                f"{name}: method sigma {prop:.4e} inside the "
                f"{self.ci_confidence:.1%} CI [{st.std_ci_low:.4e}, "
                f"{st.std_ci_high:.4e}] of the in-run MC-{st.n}",
                st.std_ci_low <= prop <= st.std_ci_high))
        return checks, details


class LadderLargeState(DesignLoop):
    """The mismatch-decorated RC ladder above the matrix-free
    threshold, on the sparse backend."""

    name = "ladder_large_state"
    ref_key = "ladder"
    sections = 256
    stride = 20

    def build(self, params):
        return circuits.mismatch_ladder(self.sections, self.stride)

    def cold_measures(self):
        return [DcLevel("v_end", f"n{self.sections}"),
                DcLevel("v_mid", f"n{self.sections // 2}")]

    def warm_sets(self):
        return [self.cold_measures()
                + [DcLevel("v_q", f"n{self.sections // 4}")],
                self.cold_measures()
                + [DcLevel("v_3q", f"n{3 * self.sections // 4}")]]

    def request(self, circuit, measures):
        return AnalysisRequest.transient_mismatch(
            circuit, measures, period=circuits.LADDER_PERIOD,
            backend="sparse",
            pss_options=PssOptions(n_steps=320, settle_periods=2))

    def mc_settings(self):
        p = circuits.LADDER_PERIOD
        return {"t_stop": 3 * p, "dt": p / 80, "window": [2 * p, 3 * p],
                "backend": "sparse"}

    def check_cold(self, sigma, params):
        ref = self.ref["method"]
        for name, value in ref["sigma"].items():
            if _rel(sigma[name], value) > ref["rtol"]:
                return (f"sigma({name}) {sigma[name]!r} differs from the "
                        f"committed {value!r} by more than "
                        f"{ref['rtol']:g}")
        return ""


# ---------------------------------------------------------------------------
# the service mix
# ---------------------------------------------------------------------------
RC_PERIOD = 1e-6
RC_PSS = PssOptions(n_steps=32, settle_periods=1)
#: The RC workloads' measure: the sine's delay through the low-pass.
RC_DELAY = EdgeDelay("delay", "in", "out", 0.65, from_edge="rise",
                     to_edge="rise")


@dataclass
class _Daemon:
    proc: subprocess.Popen
    url: str = ""

    def peak_rss_kb(self) -> int:
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _spawn_daemon() -> _Daemon:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env)
    return _Daemon(proc)


def _numbers(summary: dict) -> dict:
    """A summary as it looks after crossing the wire, without the
    wall-clock ``runtime_breakdown`` (the only part that may differ
    between two runs of the same request)."""
    return {k: v for k, v in json.loads(json.dumps(summary)).items()
            if k != "runtime_breakdown"}


@dataclass
class _Inputs:
    """The seeded request pool of one run."""

    design: list = field(default_factory=list)    # (req A, req B)
    ac: list = field(default_factory=list)        # req
    dc: list = field(default_factory=list)        # req
    expected: dict = field(default_factory=dict)  # key -> summary
    mc_seeds: list = field(default_factory=list)
    mc_expected: dict = field(default_factory=dict)  # seed -> samples


class ServiceMix(Workload):
    """Two daemons, one closed-loop client, a Zipf-skewed mix
    of ``/run``, ``/jobs`` and scattered Monte-Carlo requests."""

    name = "service_mix"
    ref_key = "service_rc"
    #: Operation weights: the requests of one pass of the repository's
    #: service callers, ``examples/service_batch.py --url`` and the
    #: remote part of ``examples/service_daemon.py``: seven
    #: transient_mismatch ``/run`` (design step: A, then B on a memo
    #: miss), one ``ac`` ``/run``, one dc_mismatch ``/jobs`` submit +
    #: poll, two scattered Monte-Carlo runs.  Left out: the batch
    #: example's ``sweep`` request (its summary says which cases came
    #: from the memo, so it has no fixed in-process answer) and the
    #: daemon example's malformed request (refused by design).
    mix = (("design", 7), ("ac", 1), ("job", 1), ("scatter", 2))
    #: Assumptions no caller fixes (README, "service_mix"): the
    #: popularity exponent, the pool sizes (40 RC circuits give 120
    #: /run keys, plus 32 MOS /jobs keys: more than the daemon's
    #: 64-entry memo) and the Monte-Carlo seeds per run.
    zipf_s = 1.1
    n_rc = 40
    n_dc = 32
    n_mc_seeds = 4
    #: The daemon example's scatter: 16 samples in chunks of 4.
    mc_n = 16
    mc_chunk = 4

    def __init__(self):
        self.ref: dict = {}
        self.daemons: list[_Daemon] = []
        self.sessions: list[RemoteSession] = []
        self.pool: WorkerPool | None = None
        self.inputs: _Inputs | None = None
        self.method_sigma: float | None = None
        self.mc_circuit = None

    def mc_testbench(self):
        return circuits.rc_lowpass(name="rc_mc")

    def mc_measures(self):
        return [RC_DELAY]

    def mc_settings(self):
        return {"t_stop": 3e-6, "dt": 2e-8, "window": [2e-6, 3e-6]}

    def _mc_run(self, seed: int, run):
        """One timed-Monte-Carlo-shaped run through *run*
        (``monte_carlo_transient`` or the scatter)."""
        settings = self.mc_settings()
        return run(self.mc_circuit, self.mc_measures(), self.mc_n,
                   settings["t_stop"], settings["dt"],
                   chunk_size=self.mc_chunk,
                   window=tuple(settings["window"]), seed=seed)

    def startup(self) -> None:
        AnalysisSession().run(AnalysisRequest.transient_mismatch(
            circuits.rc_lowpass(name="warmup"), [RC_DELAY],
            period=RC_PERIOD, pss_options=RC_PSS))

    def _stop_daemons(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        for d in self.daemons:
            d.stop()
        self.daemons = []

    def prepare(self, seed: int) -> None:
        self.ref = self.load_reference()
        self._stop_daemons()
        # the daemons import while the in-process references compute
        self.daemons = [_spawn_daemon() for _ in range(2)]
        rng = np.random.default_rng([seed, 4])
        inputs = _Inputs()
        local = AnalysisSession()
        a_set = [RC_DELAY]
        b_set = [RC_DELAY, DcLevel("vout", "out")]
        # fixed value grids; the seed decides pairing and popularity
        rs = rng.permutation(np.linspace(0.5e3, 2e3, self.n_rc))
        cs = rng.permutation(np.linspace(50e-12, 150e-12, self.n_rc))
        for i in range(self.n_rc):
            ckt = circuits.rc_lowpass(r=float(rs[i]), c=float(cs[i]),
                                      name=f"rc{i}")
            pair = tuple(AnalysisRequest.transient_mismatch(
                ckt, ms, period=RC_PERIOD, pss_options=RC_PSS)
                for ms in (a_set, b_set))
            for req in pair:
                inputs.expected[req.key()] = _numbers(local.run(req).summary)
            inputs.design.append(pair)
            ac = AnalysisRequest.ac(ckt, {"vout": "out"}, source="VS",
                                    freqs=[1e5, 1e6, 1e7])
            inputs.expected[ac.key()] = _numbers(local.run(ac).summary)
            inputs.ac.append(ac)
        ws = rng.permutation(np.linspace(1.5e-6, 3e-6, self.n_dc))
        loads = rng.permutation(np.linspace(1.5e3, 3e3, self.n_dc))
        for i in range(self.n_dc):
            req = AnalysisRequest.dc_mismatch(
                circuits.cs_amplifier(w=float(ws[i]),
                                      r_load=float(loads[i])),
                {"vd": "d"})
            inputs.expected[req.key()] = _numbers(local.run(req).summary)
            inputs.dc.append(req)
        self.mc_circuit = self.mc_testbench()
        self.method_sigma = local.run(AnalysisRequest.transient_mismatch(
            self.mc_circuit, a_set, period=RC_PERIOD,
            pss_options=RC_PSS)).sigma("delay")
        inputs.mc_seeds = [int(s) for s in
                           rng.integers(2 ** 31, size=self.n_mc_seeds)]
        for s in inputs.mc_seeds:
            inputs.mc_expected[s] = self._mc_run(
                s, monte_carlo_transient).samples["delay"]
        self.inputs = inputs
        for d in self.daemons:
            d.url = d.proc.stdout.readline().strip()
            if not d.url.startswith("http"):
                raise RuntimeError(f"daemon failed to start: {d.url!r}")
        self.sessions = [RemoteSession(d.url) for d in self.daemons]
        self.pool = WorkerPool([d.url for d in self.daemons],
                               policy=ScatterPolicy())
        # untimed throwaway request per daemon (daemon-side lazy start)
        warm = AnalysisRequest.transient_mismatch(
            circuits.rc_lowpass(name="warmup"), a_set, period=RC_PERIOD,
            pss_options=RC_PSS)
        threads = [threading.Thread(target=s.run, args=(warm,))
                   for s in self.sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

    def operations(self, seed: int):
        rng = np.random.default_rng([seed, 5])
        kinds = [k for k, _ in self.mix]
        weights = np.array([w for _, w in self.mix], dtype=float)

        def zipf(n):
            p = 1.0 / np.arange(1, n + 1) ** self.zipf_s
            return p / p.sum()

        p_rc, p_dc = zipf(self.n_rc), zipf(self.n_dc)
        while True:
            kind = kinds[rng.choice(len(kinds), p=weights / weights.sum())]
            daemon = int(rng.integers(2))
            if kind in ("design", "ac"):
                yield (kind, daemon, int(rng.choice(self.n_rc, p=p_rc)))
            elif kind == "job":
                yield (kind, daemon, int(rng.choice(self.n_dc, p=p_dc)))
            else:
                yield (kind, daemon,
                       int(rng.integers(self.n_mc_seeds)))

    def _check(self, request, result) -> str:
        if _numbers(result.summary) != self.inputs.expected[request.key()]:
            return "response differs from the in-process result"
        if result.failures:
            return "response carries failure records"
        return ""

    def _check_mc(self, result, seed) -> str:
        if result.n_failed:
            return f"{result.n_failed} Monte-Carlo lanes lost"
        if not np.array_equal(result.samples["delay"],
                              self.inputs.mc_expected[seed]):
            return ("scattered samples differ from in-process "
                    "monte_carlo_transient")
        return ""

    def _timed(self, kind, fn) -> tuple[Record, object]:
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # refused or failed request
            return Record(kind, time.perf_counter() - t0, ok=False,
                          why=f"{type(exc).__name__}: {exc}"), None
        return Record(kind, time.perf_counter() - t0), out

    def execute(self, op) -> list[Record]:
        kind, daemon, index = op
        session = self.sessions[daemon]
        records = []
        if kind == "design":
            req_a, req_b = self.inputs.design[index]
            rec, res = self._timed("cold", lambda: session.run(req_a))
            records.append(rec)
            if res is None:
                return records
            rec.why = self._check(req_a, res)
            if res.from_cache:
                rec.kind = "memo"
            else:
                # compile and PSS of this circuit are in the daemon's
                # stores now: B runs LPTV + measures only
                rec_b, res_b = self._timed("warm",
                                           lambda: session.run(req_b))
                records.append(rec_b)
                if res_b is not None:
                    rec_b.why = self._check(req_b, res_b)
                    if res_b.from_cache:
                        rec_b.kind = "memo"
        elif kind == "ac":
            req = self.inputs.ac[index]
            rec, res = self._timed(kind, lambda: session.run(req))
            records.append(rec)
            if res is not None:
                rec.why = self._check(req, res)
        elif kind == "job":
            req = self.inputs.dc[index]
            rec, res = self._timed(
                kind, lambda: session.submit(req).result(timeout=60))
            records.append(rec)
            if res is not None:
                rec.why = self._check(req, res)
        else:
            seed = self.inputs.mc_seeds[index]
            rec, res = self._timed("mc", lambda: self._mc_run(
                seed, functools.partial(scatter_monte_carlo_transient,
                                        self.pool)))
            records.append(rec)
            if res is not None:
                rec.lanes = self.mc_n - res.n_failed
                rec.lanes_failed = res.n_failed
                rec.why = self._check_mc(res, seed)
        for rec in records:
            rec.ok = rec.ok and not rec.why
        return records

    def deviation(self):
        if self.method_sigma is None:
            return None
        ref = self.ref["mc"]
        return _rel(self.method_sigma, ref["sigma"]["delay"]), ref["n"]

    def counters(self) -> dict:
        total: dict = {}
        for s in self.sessions:
            _add_stats(total, s.stats())
        if self.pool is not None:
            st = self.pool.stats()
            total["dispatched"] = sum(e["dispatched"]
                                      for e in st["endpoints"])
            total["failures"] = sum(e["failures"] for e in st["endpoints"])
            total["hedges"] = st["hedges"]
        return total

    def extra_rss_kb(self) -> int:
        return sum(d.peak_rss_kb() for d in self.daemons)

    def finish(self):
        return [], {"distinct_requests": len(self.inputs.expected),
                    "method_sigma": self.method_sigma}

    def close(self) -> None:
        self._stop_daemons()


WORKLOADS = {w.name: w for w in (ComparatorDesignLoop, LogicPathValidation,
                                 LadderLargeState, ServiceMix)}

