"""One benchmark run: set-up, the measured closed loop, the checks and
the metrics.

Untraced runs (``trace=0``) report the end-to-end metrics.  Traced runs
(``trace=1``) run the loop twice on the same operations - first
untraced for half the time, then the identical operations again with
the layer wrappers installed - and report the per-layer metrics, the
tracing overhead (traced over untraced wall time of the same
operations) and the unattributed share.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

from repro.stats import sigma_relative_ci_halfwidth

from . import arith
from .instrument import Tracer
from .spans import Recorder
from .workloads import WORKLOADS, Record

#: Set-up repetitions whose median is reported (``setup_s``).
SETUP_REPS = 3

LAYERS = ("circuits", "mna", "transient", "pss", "lptv", "linalg",
          "measures", "montecarlo", "jobs", "session", "serialize", "net",
          "resilience")


def run_loop(workload, ops, deadline: "float | None", rec=None):
    """Execute *ops* (an iterator) as one closed-loop client until the
    first cycle boundary after *deadline* (``time.perf_counter``) or
    until *ops* runs out.  Returns ``(records, executed ops, wall
    seconds)``."""
    records: list[Record] = []
    executed: list = []
    t0 = time.perf_counter()
    for op in ops:
        if deadline is not None and workload.starts_cycle(op) \
                and time.perf_counter() >= deadline:
            break
        executed.append(op)
        root = (rec.begin(f"op.{op[0]}", rid=f"op:{len(executed)}")
                if rec is not None else None)
        t_op = time.perf_counter()
        try:
            records.extend(workload.execute(op))
        except Exception as exc:  # a failed operation, not a crash
            records.append(Record(op[0], time.perf_counter() - t_op,
                                  ok=False,
                                  why=f"{type(exc).__name__}: {exc}"))
        finally:
            if root is not None:
                rec.end(root)
    return records, executed, time.perf_counter() - t0


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def end_to_end(workload, records, wall: float, setup: dict) -> tuple:
    """The end-to-end metrics and the details that qualify them.  A
    metric the run could not measure (no request of its kind
    completed, every Monte-Carlo lane failed, the method never ran) is
    ``None``; :func:`run` counts it as a failed check."""
    by_kind: dict = {}
    for r in records:
        if r.ok:
            by_kind.setdefault(r.kind, []).append(r.latency)
    latencies = [r.latency for r in records]
    mc = [r for r in records if r.kind == "mc"]
    lanes = sum(r.lanes for r in mc)
    mc_rate = lanes / sum(r.latency for r in mc) if lanes else None
    dev = workload.deviation()
    n_eq = (arith.equal_accuracy_n(dev[0], dev[1],
                                   sigma_relative_ci_halfwidth)
            if dev is not None else None)
    tail_s, tail_p, tail_beyond = (arith.tail(latencies) if latencies
                                   else (None, None, 0))
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + workload.extra_rss_kb())

    def median(kind):
        return statistics.median(by_kind[kind]) if kind in by_kind \
            else None

    def scaled(value, factor):
        return value * factor if value is not None else None

    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "sigma_cold_s": (median("cold"), "s"),
        "sigma_warm_s": (median("warm"), "s"),
        "mc_samples_per_s": (mc_rate, "1/s"),
        "mc_equal_accuracy_s": (
            n_eq / mc_rate if n_eq is not None and mc_rate else None,
            "s"),
        "req_p50_ms": (scaled(arith.percentile(latencies, 50.0), 1e3)
                       if latencies else None, "ms"),
        "req_tail_ms": (scaled(tail_s, 1e3), "ms"),
        "req_per_s": (len(records) / wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {
        "samples": {k: len(v) for k, v in sorted(by_kind.items())},
        "requests": len(records),
        "req_tail_percentile": tail_p,
        "req_tail_beyond": tail_beyond,
        "mc_lanes": lanes,
        "mc_n_eq": n_eq,
        "mc_method_deviation": dev[0] if dev is not None else None,
        "mc_reference_n": dev[1] if dev is not None else None,
        "measured_wall_s": wall,
        **setup,
    }
    counts = workload.counters()
    hits, misses = counts.get("hits.results"), counts.get("misses.results")
    if hits is not None and hits + misses:
        details["result_hit_share"] = hits / (hits + misses)
    return metrics, details


def per_layer(spans, setup_spans, counters: dict, records, wall_a: float,
              wall_b: float) -> tuple:
    """The per-layer metrics of the traced phase."""
    dur: dict = {}
    cnt: dict = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        cnt[s.name] = cnt.get(s.name, 0) + 1
    by_sid = {s.sid: s for s in spans}

    def d(name):
        return dur.get(name, 0.0)

    def c(name):
        return cnt.get(name, 0)

    def attr_sum(name, key, where=lambda s: True):
        return sum((s.attrs or {}).get(key, 0) for s in spans
                   if s.name == name and where(s))

    settle = {s.sid for s in spans if s.name == "transient.settle"}
    # pool start: queue construction plus the first dispatch of each
    # queue, which forks the workers (a queue is known by id() only
    # while it lives, so pair each dispatch with the latest init)
    pool_start = 0.0
    fresh_queues: set = set()
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "jobs.pool_init":
            pool_start += s.duration
            fresh_queues.add(s.attrs["queue"])
        elif s.name == "jobs.submit" and s.attrs["queue"] in fresh_queues:
            pool_start += s.duration
            fresh_queues.discard(s.attrs["queue"])
    # shard wait: MC wall time minus the workers' busy time per worker
    wait = 0.0
    for s in spans:
        if s.name == "montecarlo.run" and (s.attrs or {}).get("workers",
                                                              1) > 1:
            busy = sum(w.duration for w in spans
                       if w.name == "jobs.worker" and w.parent == s.sid)
            wait += max(0.0, s.duration - busy / s.attrs["workers"])

    # self time on the client threads: every op root and what it ran
    # on its own thread; work on other threads and processes ran while
    # these waited and is reported through the named metrics above
    main = os.getpid()
    roots = [s for s in spans if s.name.startswith("op.")]
    op_threads = {s.tid for s in roots}
    blocking = [s for s in spans if s.pid == main and s.tid in op_threads]
    selfs = arith.self_times(blocking)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in blocking:
        if s.layer in layer_self:
            layer_self[s.layer] += selfs[s.sid]
    root_wall = sum(s.duration for s in roots)
    checks = sum(s.duration for s in blocking if s.name == "bench.check")
    unattributed = sum(selfs[s.sid] for s in roots)

    def root_of(s):
        while s.parent is not None and s.parent in by_sid:
            s = by_sid[s.parent]
        return s

    cold_roots = {s.sid for s in roots if s.name == "op.cold"}
    cold_wall = sum(by_sid[sid].duration for sid in cold_roots)
    cold_named: dict = {}
    for s in spans:
        if s.pid == main and s.name != "op.cold" \
                and root_of(s).sid in cold_roots:
            cold_named[s.name] = cold_named.get(s.name, 0.0) + s.duration

    solve_calls = c("linalg.solve") + c("linalg.direct")
    factor_calls = c("linalg.factor") + c("linalg.direct")
    hits_r = counters.get("hits.results", 0)
    miss_r = counters.get("misses.results", 0)
    fresh = [s for s in spans if s.name == "net.roundtrip"
             and (s.attrs or {}).get("server_s", 0.0) > 0.0]
    m = {
        "circuits.build_s": (sum(s.duration for s in setup_spans
                                 if s.name == "circuits.build"), "s"),
        "mna.compile_s": (d("mna.compile"), "s"),
        "mna.compile_calls": (c("mna.compile"), "count"),
        "mna.assemble_s": (d("mna.assemble"), "s"),
        "mna.assemble_calls": (c("mna.assemble"), "count"),
        "transient.settle_s": (d("transient.settle"), "s"),
        "transient.settle_steps": (attr_sum(
            "transient.run", "steps", lambda s: s.parent in settle),
            "count"),
        "transient.mc_s": (d("transient.mc"), "s"),
        "pss.shooting_s": (d("pss.shooting"), "s"),
        "pss.shooting_iters": (c("pss.shooting"), "count"),
        "lptv.solve_s": (d("lptv.solve"), "s"),
        "lptv.orbit_factor_s": (d("lptv.orbit_factor"), "s"),
        "linalg.factor_calls": (factor_calls, "count"),
        "linalg.factor_s": (d("linalg.factor"), "s"),
        "linalg.solve_calls": (solve_calls, "count"),
        "linalg.solve_s": (d("linalg.solve") + d("linalg.direct"), "s"),
        "linalg.solves_per_factor": (
            solve_calls / factor_calls if factor_calls else 0.0,
            "ratio"),
        "krylov.gmres_calls": (c("linalg.gmres"), "count"),
        "krylov.gmres_iters": (attr_sum("linalg.gmres", "iters"),
                               "count"),
        "krylov.gmres_s": (d("linalg.gmres"), "s"),
        "measures.s": (d("measures.eval"), "s"),
        "montecarlo.shard_calls": (c("montecarlo.shard"), "count"),
        "montecarlo.shard_s": (d("montecarlo.shard"), "s"),
        "montecarlo.merge_s": (d("montecarlo.merge"), "s"),
        "montecarlo.lanes_failed": (sum(r.lanes_failed for r in records),
                                    "count"),
        "jobs.pool_start_s": (pool_start, "s"),
        "jobs.wait_s": (wait, "s"),
        "jobs.retries": (sum(1 for s in spans if s.name == "jobs.submit"
                             and s.attrs["attempt"] > 0), "count"),
        "session.run_s": (d("session.run"), "s"),
    }
    for store in ("compiled", "pss", "results"):
        m[f"session.hits.{store}"] = (counters.get(f"hits.{store}", 0),
                                      "count")
        m[f"session.misses.{store}"] = (
            counters.get(f"misses.{store}", 0), "count")
    m.update({
        "session.result_hit_share": (
            hits_r / (hits_r + miss_r) if hits_r + miss_r else 0.0,
            "ratio"),
        "serialize.encode_s": (d("serialize.encode"), "s"),
        "serialize.decode_s": (d("serialize.decode"), "s"),
        "net.roundtrip_s": (d("net.roundtrip"), "s"),
        "net.server_s": (attr_sum("net.roundtrip", "server_s"), "s"),
        "net.transport_s": (sum(s.duration - s.attrs["server_s"]
                                for s in fresh), "s"),
        "resilience.dispatched": (counters.get("dispatched", 0), "count"),
        "resilience.failures": (counters.get("failures", 0), "count"),
        "resilience.hedges": (counters.get("hedges", 0), "count"),
        "resilience.breaker_opens": (attr_sum("resilience.breaker",
                                              "opened"), "count"),
    })
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (layer_self[layer], "s")
    m.update({
        "trace.unattributed_share": (
            unattributed / (root_wall - checks) if root_wall else 0.0,
            "ratio"),
        "trace.overhead_share": (wall_b / wall_a - 1.0, "ratio"),
        "trace.cold_settle_share": (
            cold_named.get("transient.settle", 0.0) / cold_wall
            if cold_wall else 0.0, "ratio"),
        "trace.ops": (len(roots), "count"),
        "trace.wall_s": (wall_b, "s"),
        "trace.spans": (len(spans), "count"),
    })
    details = {
        "layer_self_share": {k: v / root_wall for k, v in layer_self.items()
                             if root_wall},
        "cold_inclusive_share": {
            k: v / cold_wall for k, v in sorted(
                cold_named.items(), key=lambda kv: -kv[1])[:12]}
        if cold_wall else {},
    }
    return m, details


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float) -> dict:
    workload = WORKLOADS[name]()
    rec = tracer = None
    if trace:
        rec = Recorder()
        tracer = Tracer(rec)
        tracer.install()
    try:
        t0 = time.perf_counter()
        workload.startup()
        startup_s = time.perf_counter() - t0
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload.prepare(seed)
            reps.append(time.perf_counter() - t0)
        setup = {"setup_s": import_s + startup_s + statistics.median(reps),
                 "setup_import_s": import_s, "setup_startup_s": startup_s,
                 "setup_reps_s": reps}
        if not trace:
            records, _, wall = run_loop(
                workload, workload.operations(seed),
                time.perf_counter() + seconds)
            metrics, details = end_to_end(workload, records, wall, setup)
        else:
            setup_spans = list(rec.spans)
            tracer.uninstall()
            records_a, ops, wall_a = run_loop(
                workload, workload.operations(seed),
                time.perf_counter() + seconds / 2.0)
            # the replay starts from the state the untraced pass saw
            # (fresh daemons with empty memos on the service mix)
            workload.prepare(seed)
            before = workload.counters()
            mark = rec.mark()
            tracer.install()
            records, _, wall = run_loop(workload, iter(ops), None, rec)
            tracer.uninstall()
            counters = _delta(workload.counters(), before)
            metrics, details = per_layer(rec.since(mark), setup_spans,
                                         counters, records, wall_a, wall)
            records = records_a + records
        checks, more = workload.finish()
        details.update(more)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    unmeasured = [k for k, (v, _) in metrics.items() if v is None]
    if unmeasured:
        checks.append((f"unmeasured: {', '.join(unmeasured)}", False))
    bad = [r for r in records if not r.ok]
    failed_checks = [what for what, ok in checks if not ok]
    details["failures"] = ([f"{r.kind}: {r.why}" for r in bad[:5]]
                           + failed_checks)
    return {
        "details": details,
        "result": {
            "correct": not bad and not failed_checks,
            "attempted": len(records) + len(checks),
            "failed": len(bad) + len(failed_checks),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }
