"""Span wrappers around the program's layer functions (traced runs only).

The program is not changed: :class:`Tracer` replaces layer functions
with span-recording wrappers *where the callers look them up* and puts
the originals back afterwards.

* A function imported by name into another module (``from .transient
  import transient`` in ``pss.py``) is looked up in the importer's
  namespace, so the wrapper goes there - one entry per import site.
* A function imported inside a function body (``from ..analysis.mna
  import compile_circuit``) is looked up in its home module at call
  time, so one entry on the home module covers every such caller.
* Methods are looked up on the class; the wrapper replaces the class
  attribute.

Pool workers are forked from the traced process, so they run the same
wrappers.  The worker entry point ``repro.service.jobs._run_shard``
ships the spans a worker recorded back inside its result dict, and the
parent's ``ShardResult.from_dict`` takes them out again before the
program sees the dict.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from dataclasses import dataclass
from typing import Callable

from .spans import Recorder, Span

#: Result-dict key carrying a pool worker's spans back to the parent.
SHIPPED_SPANS = "_perfbench_spans"


@dataclass(frozen=True)
class Patch:
    """One wrapper: ``module:attr`` (``attr`` may be ``Class.method``)
    recorded as span *span*.

    after:
        ``(span, result, args, kwargs)`` hook that stores counts on the
        finished span.
    parent_key:
        ``(args, kwargs) -> key`` of a hand-off registered by a caller
        on another thread; the span's parent is the registered span.
    register_key:
        ``(args, kwargs) -> key`` under which this span registers itself
        for callees on other threads.
    """

    module: str
    attr: str
    span: str
    after: Callable | None = None
    parent_key: Callable | None = None
    register_key: Callable | None = None


def _steps(span, result, args, kwargs):
    span.attrs = {"steps": int(result.n_accepted)}


def _gmres_iters(span, result, args, kwargs):
    span.attrs = {"iters": int(result[1])}


def _mc_workers(span, result, args, kwargs):
    span.attrs = {"workers": kwargs.get("n_workers") or 1}


def _queue_id(span, result, args, kwargs):
    span.attrs = {"queue": id(args[0])}


def _dispatch(span, result, args, kwargs):
    # JobQueue._submit_raw(self, fn, payload, attempt)
    span.attrs = {"queue": id(args[0]),
                  "attempt": args[3] if len(args) > 3
                  else kwargs.get("attempt", 0)}


def _server_time(span, result, args, kwargs):
    """Daemon compute time inside a ``POST /run`` round trip
    (``RemoteSession._call(self, method, path, ...)``).  A memo hit
    reports the runtime of the run that filled the memo, and a ``/jobs``
    result was computed between polls, so neither counts."""
    server = 0.0
    if args[2] == "/run" and not result.get("from_cache", False):
        server = float(result.get("runtime_seconds", 0.0))
    span.attrs = {"server_s": server}


def _spec_key(args, kwargs):
    return ("spec", id(args[1]))


PATCHES = (
    # circuits: the testbench builders the workloads call
    Patch("repro.circuits", "strongarm_offset_testbench",
          "circuits.build"),
    Patch("repro.circuits", "logic_path_testbench", "circuits.build"),
    Patch("perfbench.circuits", "mismatch_ladder", "circuits.build"),
    Patch("perfbench.circuits", "rc_lowpass", "circuits.build"),
    Patch("perfbench.circuits", "cs_amplifier", "circuits.build"),
    # mna
    Patch("repro.analysis.mna", "compile_circuit", "mna.compile"),
    Patch("repro.analysis.mna", "CompiledCircuit.assemble",
          "mna.assemble"),
    Patch("repro.analysis.mna", "CsrAssembler.assemble", "mna.assemble"),
    Patch("repro.analysis.mna", "CompiledCircuit.mismatch_injections",
          "mna.injections"),
    # transient: the pre-shooting settle, every stepper run inside
    # pss.py (settle and matrix-free shooting), the Monte-Carlo chunks
    Patch("repro.analysis.pss", "_settle_start", "transient.settle"),
    Patch("repro.analysis.pss", "transient", "transient.run",
          after=_steps),
    Patch("repro.core.montecarlo", "transient", "transient.mc",
          after=_steps),
    # pss
    Patch("repro.analysis.pss", "pss", "pss.run"),
    Patch("repro.analysis.pss", "integrate_period", "pss.shooting"),
    Patch("repro.analysis.pss", "_integrate_period_csr", "pss.shooting"),
    # lptv (lptv + orbit)
    Patch("repro.analysis.pss", "PssResult.linearization",
          "lptv.linearize"),
    Patch("repro.analysis.lptv", "PeriodicLinearization.solve",
          "lptv.solve"),
    Patch("repro.analysis.orbit", "OrbitLinearization.factors",
          "lptv.orbit_factor"),
    # linalg (backends + krylov)
    Patch("repro.linalg.backends", "DenseBackend.factor", "linalg.factor"),
    Patch("repro.linalg.backends", "CachedDenseBackend.factor",
          "linalg.factor"),
    Patch("repro.linalg.backends", "SparseBackend.factor",
          "linalg.factor"),
    Patch("repro.linalg.backends", "SparseBackend.factor_csc",
          "linalg.factor"),
    Patch("repro.linalg.backends", "LinearSolverBackend.factor_csc",
          "linalg.factor"),
    Patch("repro.linalg.backends", "DenseBackend.solve", "linalg.direct"),
    Patch("repro.linalg.backends", "DenseLuFactorization.solve",
          "linalg.solve"),
    Patch("repro.linalg.backends", "BatchedInverseFactorization.solve",
          "linalg.solve"),
    Patch("repro.linalg.backends", "SparseLuFactorization.solve",
          "linalg.solve"),
    Patch("repro.linalg.backends", "BatchedSparseLuFactorization.solve",
          "linalg.solve"),
    Patch("repro.linalg.krylov", "gmres_blocked", "linalg.gmres",
          after=_gmres_iters),
    Patch("repro.analysis.pss", "gmres_blocked", "linalg.gmres",
          after=_gmres_iters),
    # measures
    Patch("repro.core.measures", "Measure.measure_pss", "measures.eval"),
    Patch("repro.core.measures", "DcLevel.measure_waveset",
          "measures.eval"),
    Patch("repro.core.measures", "DcLevel.sensitivities",
          "measures.eval"),
    Patch("repro.core.measures", "EdgeDelay.measure_waveset",
          "measures.eval"),
    Patch("repro.core.measures", "EdgeDelay.sensitivities",
          "measures.eval"),
    # montecarlo (core.montecarlo + service.shards)
    Patch("repro.core.montecarlo", "monte_carlo_transient",
          "montecarlo.run", after=_mc_workers),
    Patch("repro.service.shards", "run_shard", "montecarlo.shard"),
    Patch("repro.service.jobs", "run_shard", "montecarlo.shard"),
    Patch("repro.service.shards", "merge_shard_results",
          "montecarlo.merge"),
    Patch("repro.service.client", "merge_shard_results",
          "montecarlo.merge"),
    Patch("repro.service.client", "mc_transient_shards",
          "montecarlo.plan"),
    # jobs
    Patch("repro.service.jobs", "JobQueue.__init__", "jobs.pool_init",
          after=_queue_id),
    Patch("repro.service.jobs", "JobQueue._submit_raw", "jobs.submit",
          after=_dispatch),
    Patch("repro.service.jobs", "Job.result", "jobs.wait"),
    # session (session + engines)
    Patch("repro.service.session", "AnalysisSession.run", "session.run"),
    # serialize: request/result values to and from their wire form
    Patch("repro.service.requests", "AnalysisRequest.build",
          "serialize.encode"),
    Patch("repro.service.requests", "AnalysisRequest.to_dict",
          "serialize.encode"),
    Patch("repro.service.shards", "ShardSpec.to_dict",
          "serialize.encode"),
    Patch("repro.service.requests", "AnalysisResult.from_dict",
          "serialize.decode"),
    Patch("repro.service.engines", "circuit_from_dict",
          "serialize.decode"),
    Patch("repro.service.engines", "from_jsonable", "serialize.decode"),
    Patch("repro.service.serialize", "circuit_from_dict",
          "serialize.decode"),
    # net (net + client): the client calls (encode, round trips, job
    # polling and its sleeps, decode) and each HTTP round trip
    Patch("repro.service.client", "RemoteSession.run", "net.request"),
    Patch("repro.service.client", "RemoteSession.submit", "net.request"),
    Patch("repro.service.client", "RemoteJob.result", "net.request"),
    Patch("perfbench.workloads", "scatter_monte_carlo_transient",
          "net.scatter"),
    Patch("repro.service.client", "RemoteSession._call", "net.roundtrip",
          after=_server_time),
    # resilience: the coordinator and call threads link back to the
    # scatter through the shard spec they carry
    Patch("repro.service.resilience", "WorkerPool._run_one",
          "resilience.shard", parent_key=_spec_key,
          register_key=_spec_key),
    Patch("repro.service.resilience", "WorkerPool._timed_run",
          "resilience.call",
          parent_key=lambda args, kwargs: ("spec", id(args[2]))),
    # the benchmark's own response checks: not a layer, and not part of
    # the wall time the layers must account for
    Patch("perfbench.workloads", "DesignLoop._same_sigma", "bench.check"),
    Patch("perfbench.workloads", "ServiceMix._check", "bench.check"),
    Patch("perfbench.workloads", "ServiceMix._check_mc", "bench.check"),
)


def _resolve(module: str, attr: str):
    """``(owner, name)`` for *attr* inside *module*."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs the wrappers of :data:`PATCHES` (plus the special
    cases below) around one :class:`Recorder`, and removes them."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list = []

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for p in PATCHES:
            owner, name = _resolve(p.module, p.attr)
            self._replace(owner, name,
                          lambda fn, p=p: self._wrap(fn, p))
        self._install_special()

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def _replace(self, owner, name: str, make) -> None:
        """Swap ``owner.name`` for ``make(function)``, keeping the raw
        attribute (a classmethod stays a classmethod)."""
        raw = (owner.__dict__[name] if isinstance(owner, type)
               else getattr(owner, name))
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    # -- the generic wrapper -------------------------------------------
    def _wrap(self, fn, p: Patch):
        rec = self.rec
        name = p.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = rec.current()
            if cur is not None and cur.name == name:
                # a layer calling itself (batched sparse solves, the
                # base-class measure) is one span, not two
                return fn(*args, **kwargs)
            parent = rid = None
            if p.parent_key is not None:
                handed = rec.handed(p.parent_key(args, kwargs))
                if handed is not None:
                    parent, rid = handed.sid, handed.rid
            span = rec.begin(name, rid=rid, parent=parent)
            if p.register_key is not None:
                rec.hand_off(p.register_key(args, kwargs), span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(span)
            if p.after is not None:
                p.after(span, result, args, kwargs)
            return result

        return wrapper

    # -- special cases -------------------------------------------------
    def _install_special(self) -> None:
        rec = self.rec
        jobs = importlib.import_module("repro.service.jobs")
        shards = importlib.import_module("repro.service.shards")
        client = importlib.import_module("repro.service.client")
        resilience = importlib.import_module("repro.service.resilience")

        def worker_entry(fn):
            # runs inside the forked pool worker
            @functools.wraps(fn)
            def wrapper(spec_dict, attempt=0):
                rec.reset_thread()
                mark = rec.mark()
                span = rec.begin(
                    "jobs.worker",
                    rid=f"shard:{spec_dict['start']}-{spec_dict['stop']}")
                try:
                    out = fn(spec_dict, attempt)
                finally:
                    rec.end(span)
                new = rec.since(mark)
                del rec.spans[mark:]
                out = dict(out)
                out[SHIPPED_SPANS] = [s.to_tuple() for s in new]
                return out
            return wrapper

        self._replace(jobs, "_run_shard", worker_entry)

        def submit_shard(fn):
            # the worker's root span hangs under the span that queued it
            @functools.wraps(fn)
            def wrapper(queue, spec):
                cur = rec.current()
                if cur is not None:
                    rec.hand_off(("shard", spec.start, spec.stop), cur)
                return fn(queue, spec)
            return wrapper

        self._replace(jobs.JobQueue, "submit_shard", submit_shard)

        def shard_from_dict(fn):
            @functools.wraps(fn)
            def wrapper(cls, data):
                shipped = data.get(SHIPPED_SPANS)
                if shipped is not None:
                    data = {k: v for k, v in data.items()
                            if k != SHIPPED_SPANS}
                    spans = [Span.from_tuple(t) for t in shipped]
                    handed = rec.handed(("shard", data["start"],
                                         data["stop"]))
                    for s in spans:
                        if s.parent is None and handed is not None:
                            s.parent = handed.sid
                    rec.add(spans)
                span = rec.begin("serialize.decode")
                try:
                    return fn(cls, data)
                finally:
                    rec.end(span)
            return wrapper

        self._replace(shards.ShardResult, "from_dict", shard_from_dict)

        def scatter(fn):
            @functools.wraps(fn)
            def wrapper(pool, specs):
                span = rec.begin("resilience.scatter")
                keys = [("spec", id(s)) for s in specs]
                for key in keys:
                    rec.hand_off(key, span)
                try:
                    return fn(pool, specs)
                finally:
                    rec.end(span)
                    for key in keys:
                        rec.drop_hand_off(key)
            return wrapper

        self._replace(resilience.WorkerPool, "scatter", scatter)

        def record_failure(fn):
            @functools.wraps(fn)
            def wrapper(breaker):
                before = breaker._state
                span = rec.begin("resilience.breaker")
                try:
                    return fn(breaker)
                finally:
                    rec.end(span)
                    span.attrs = {"opened": int(
                        before != "open" and breaker._state == "open")}
            return wrapper

        self._replace(resilience.CircuitBreaker, "record_failure",
                      record_failure)

        # client-side JSON: the module looks ``json`` up in its own
        # namespace, so a namespace with wrapped dumps/loads goes there
        proxy = types.SimpleNamespace(
            **{k: getattr(json, k) for k in dir(json)
               if not k.startswith("__")})
        proxy.dumps = self._wrap(json.dumps,
                                 Patch("json", "dumps", "serialize.encode"))
        proxy.loads = self._wrap(json.loads,
                                 Patch("json", "loads", "serialize.decode"))
        self._saved.append((client, "json", client.json))
        client.json = proxy
