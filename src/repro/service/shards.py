"""The Monte-Carlo shard protocol (infrastructure layer).

PR 2 made chunked Monte-Carlo deterministic: all parameter deltas come
from one seeded generator, chunks are sliced spans of that draw, and the
merge in span order is bit-identical whether chunks ran serially or in
worker processes.  This module promotes
that implicit contract into an explicit, versioned, serializable
protocol:

* :class:`ShardSpec` - a *generative* description of one chunk: the
  serialized circuit, the RNG seed, the total sample count and the
  ``[start, stop)`` span this shard owns.  A worker redraws the full
  ``n_total`` sample set from the seed and slices its span, which is
  exactly what the in-process path does - so a shard executed on
  another host produces bit-identical samples.
* :class:`ShardResult` - the measured samples of one span, with the
  workload key that guards merges.
* :func:`merge_shard_results` - the span-ordered, contiguity-checked
  merge.

Both records round-trip through plain dicts / JSON
(:meth:`ShardSpec.to_dict` / :meth:`ShardSpec.from_dict`, same for
results), and :func:`~repro.core.montecarlo.monte_carlo_transient`
itself routes through :func:`run_shard`, so the protocol *is* the
in-process path rather than a parallel reimplementation.
:meth:`MergedShards.statistics` is the one statistics tail of every
Monte-Carlo entry point, local or scattered.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from ..circuit.netlist import content_digest
from ..constants import CMIN_DEFAULT
from ..errors import AnalysisError, FailureRecord, MeasurementError
from ..linalg.backends import available_backends
from ..stats import describe
from .serialize import (circuit_from_dict, circuit_record,
                        decode_measures, encode_measures,
                        from_jsonable, measure_tokens,
                        variation_payload, variation_spec)

#: Protocol version; bumped whenever the spec/result layout or the
#: sampling contract changes.  ``from_dict`` refuses other versions.
#: v2: :class:`ShardResult` grew the ``failures`` record list
#: (supervised degradation - see :func:`degraded_shard_result`).
#: v3: :class:`ShardSpec` grew the declarative ``variations`` payload
#: (a tagged :class:`~repro.variation.VariationSpec`, lowered onto the
#: circuit's declaration order when no explicit covariance is given).
#: v4: ``options["cmin"]`` carries the planned compile's minimum node
#: capacitance (see :attr:`ShardSpec.cmin`), and ``options["backend"]``
#: its backend name when the plan started from a compiled circuit.
SHARD_PROTOCOL_VERSION = 4


@dataclass(frozen=True)
class ShardSpec:
    """One Monte-Carlo shard: workload description plus owned span.

    ``kind`` is ``"mc_transient"`` or ``"mc_dc"``.  ``circuit`` is a
    :func:`~repro.service.serialize.circuit_to_dict` record;
    ``measures`` (transient) / ``outputs`` (dc) and ``options`` carry
    the rest of the workload.  Measures may be live objects on
    in-process specs; ``to_dict`` keeps them live, so such a spec
    pickles to a local worker process but cannot cross a host boundary
    (JSON encoding raises ``TypeError``).
    """

    kind: str
    circuit: dict
    n_total: int
    start: int
    stop: int
    seed: int = 0
    sigma_scale: float = 1.0
    #: Full mismatch covariance as nested lists (JSON), or ``None``.
    param_covariance: list | None = None
    #: Declarative :class:`~repro.variation.VariationSpec` as a tagged
    #: JSON payload; lowered in :meth:`deltas` when no explicit
    #: ``param_covariance`` is given.
    variations: dict | None = None
    measures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    version: int = SHARD_PROTOCOL_VERSION

    def __post_init__(self):
        if not (0 <= self.start < self.stop <= self.n_total):
            raise ValueError(
                f"invalid shard span [{self.start}, {self.stop}) of "
                f"{self.n_total}")

    # -- identity ------------------------------------------------------
    def workload_key(self) -> str:
        """Content hash of everything except the owned span.

        Shards of one run share this key; the merge refuses results
        whose keys differ (mixing seeds, circuits or options).
        """
        return content_digest(
            "shard-workload-v1", self.version, self.kind, self.circuit,
            self.n_total, self.seed, self.sigma_scale,
            self.param_covariance, self.variations,
            measure_tokens(self.measures),
            self.outputs, self.options)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["measures"] = encode_measures(self.measures)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        version = data.get("version")
        if version != SHARD_PROTOCOL_VERSION:
            raise AnalysisError(
                f"shard protocol version {version!r} is not supported "
                f"(this build speaks {SHARD_PROTOCOL_VERSION})")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ShardSpec":
        return cls.from_dict(json.loads(text))

    # -- sampling ------------------------------------------------------
    def deltas(self, compiled) -> dict:
        """This shard's parameter deltas: the full ``n_total`` joint
        draw from ``seed``, sliced to ``[start, stop)``.

        Redrawing the whole set and slicing is what makes shards
        location-independent: the values depend only on (seed, n_total,
        circuit declarations), never on which process runs the shard.
        """
        from ..core.montecarlo import sample_mismatch
        rng = np.random.default_rng(self.seed)
        cov = (np.asarray(self.param_covariance, dtype=float)
               if self.param_covariance is not None else None)
        if cov is None and self.variations is not None:
            cov = variation_spec(self.variations).covariance(compiled)
        full = sample_mismatch(compiled, self.n_total, rng,
                               self.sigma_scale, param_covariance=cov)
        return {k: v[self.start:self.stop] for k, v in full.items()}

    @property
    def n_lanes(self) -> int:
        return self.stop - self.start

    @property
    def cmin(self) -> float:
        """The minimum node capacitance to compile with: the planned
        compile's, or ``CMIN_DEFAULT`` when the plan started from an
        uncompiled circuit."""
        cmin = self.options.get("cmin")
        return CMIN_DEFAULT if cmin is None else float(cmin)


@dataclass
class ShardResult:
    """Measured samples of one shard span.

    ``failures`` lists the :class:`~repro.errors.FailureRecord` of a
    degraded (NaN-frozen) span - empty on clean results; ``n_failed``
    counts the failed lanes either way, composing the per-lane
    freeze semantics of the MC engines with whole-shard degradation.
    """

    kind: str
    start: int
    stop: int
    samples: dict            # metric name -> np.ndarray of length n_lanes
    n_failed: int = 0
    workload_key: str = ""
    failures: list = field(default_factory=list)
    version: int = SHARD_PROTOCOL_VERSION

    def to_dict(self) -> dict:
        from .serialize import to_jsonable
        d = asdict(self)
        d["samples"] = {name: [float(v) for v in vals]
                        for name, vals in self.samples.items()}
        d["failures"] = [to_jsonable(f) for f in self.failures]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ShardResult":
        version = data.get("version")
        if version != SHARD_PROTOCOL_VERSION:
            raise AnalysisError(
                f"shard protocol version {version!r} is not supported "
                f"(this build speaks {SHARD_PROTOCOL_VERSION})")
        d = dict(data)
        d["samples"] = {name: np.asarray(vals, dtype=float)
                        for name, vals in data["samples"].items()}
        d["failures"] = [from_jsonable(f)
                         for f in data.get("failures", [])]
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ShardResult":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------
def _spans(n: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(start, min(start + chunk_size, n))
            for start in range(0, n, chunk_size)]


def _compile_options(circuit, backend) -> dict:
    """The compile a plan describes, so every worker rebuilds the same
    system: a compiled *circuit* hands over its ``cmin`` and, unless
    *backend* overrides it, the name of its registered backend."""
    if backend is None:
        name = getattr(getattr(circuit, "backend", None), "name", None)
        backend = name if name in available_backends() else None
    return {"backend": backend, "cmin": getattr(circuit, "cmin", None)}


def mc_transient_shards(circuit, measures: list, n: int, t_stop: float,
                        dt: float, chunk_size: int = 250,
                        window: tuple | None = None, seed: int = 0,
                        sigma_scale: float = 1.0,
                        param_covariance=None, method: str = "trap",
                        extra_record: list | None = None,
                        backend: str | None = None,
                        adaptive: bool = False, rtol: float = 1e-3,
                        atol: float = 1e-6, dt_min: float | None = None,
                        dt_max: float | None = None,
                        variations=None) -> list["ShardSpec"]:
    """Plan the shard set of one transient Monte-Carlo run.

    The same planner backs
    :func:`~repro.core.montecarlo.monte_carlo_transient`, so executing
    these specs (in any process placement) and merging reproduces that
    function's samples bit-for-bit at equal *chunk_size*.
    """
    cov = (np.asarray(param_covariance, dtype=float).tolist()
           if param_covariance is not None else None)
    options = {
        "t_stop": float(t_stop), "dt": float(dt),
        "window": list(window) if window is not None else None,
        "method": method, "extra_record": list(extra_record or []),
        "adaptive": adaptive,
        "rtol": rtol, "atol": atol, "dt_min": dt_min, "dt_max": dt_max,
        **_compile_options(circuit, backend),
    }
    record = circuit_record(circuit)
    encoded = encode_measures(measures)
    var = variation_payload(variations)
    return [ShardSpec(kind="mc_transient", circuit=record, n_total=n,
                      start=start, stop=stop, seed=seed,
                      sigma_scale=sigma_scale, param_covariance=cov,
                      variations=var, measures=encoded, options=options)
            for start, stop in _spans(n, chunk_size)]


def mc_dc_shards(circuit, outputs: dict, n: int, chunk_size: int,
                 seed: int = 0, sigma_scale: float = 1.0,
                 param_covariance=None, backend: str | None = None,
                 variations=None) -> list["ShardSpec"]:
    """Plan the shard set of one DC Monte-Carlo run (dcmatch baseline)."""
    cov = (np.asarray(param_covariance, dtype=float).tolist()
           if param_covariance is not None else None)
    outs = {name: (list(spec) if isinstance(spec, tuple) else spec)
            for name, spec in outputs.items()}
    return [ShardSpec(kind="mc_dc", circuit=circuit_record(circuit),
                      n_total=n, start=start, stop=stop, seed=seed,
                      sigma_scale=sigma_scale, param_covariance=cov,
                      variations=variation_payload(variations),
                      outputs=outs,
                      options=_compile_options(circuit, backend))
            for start, stop in _spans(n, chunk_size)]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _transient_options(spec: ShardSpec, measures: list):
    """The exact :class:`TransientOptions` the pre-shard
    ``monte_carlo_transient`` built - one construction site for both
    the in-process and the cross-host path."""
    from ..analysis.transient import TransientOptions
    o = spec.options
    record = sorted({node for m in measures for node in m.required_nodes()}
                    | set(o.get("extra_record") or []))
    window = o.get("window")
    adaptive = bool(o.get("adaptive", False))
    return TransientOptions(
        method=o.get("method", "trap"), record=record, isolate_lanes=True,
        adaptive=adaptive, rtol=o.get("rtol", 1e-3),
        atol=o.get("atol", 1e-6), dt_min=o.get("dt_min"),
        dt_max=o.get("dt_max"),
        t_out=(list(window) if adaptive and window is not None else None))


def run_shard(spec: ShardSpec, compiled=None) -> ShardResult:
    """Execute one shard and return its :class:`ShardResult`.

    *compiled* short-circuits the circuit rebuild for in-process
    callers; a worker passes ``None`` (or a compile of its own session,
    see :func:`~repro.service.jobs.compiled_for_shard`) and compiles
    from the spec's serialized circuit with the spec's ``cmin`` -
    content hashing guarantees both describe the same system.
    """
    if compiled is None:
        from ..analysis.mna import compile_circuit
        compiled = compile_circuit(circuit_from_dict(spec.circuit),
                                   cmin=spec.cmin,
                                   backend=spec.options.get("backend"))
    deltas = spec.deltas(compiled)
    window = spec.options.get("window")
    if spec.kind == "mc_transient":
        from ..core.montecarlo import _transient_chunk
        measures = decode_measures(spec.measures)
        topts = _transient_options(spec, measures)
        vals, failures = _transient_chunk(
            compiled, measures, topts, spec.options["t_stop"],
            spec.options["dt"],
            tuple(window) if window is not None else None,
            deltas, spec.n_lanes)
        return ShardResult(kind=spec.kind, start=spec.start,
                           stop=spec.stop, samples=vals,
                           n_failed=failures,
                           workload_key=spec.workload_key())
    if spec.kind == "mc_dc":
        from ..core.montecarlo import _dc_chunk
        outputs = {name: (tuple(s) if isinstance(s, list) else s)
                   for name, s in spec.outputs.items()}
        vals = _dc_chunk(compiled, outputs, deltas)
        return ShardResult(kind=spec.kind, start=spec.start,
                           stop=spec.stop,
                           samples={k: np.atleast_1d(v)
                                    for k, v in vals.items()},
                           workload_key=spec.workload_key())
    raise AnalysisError(f"unknown shard kind '{spec.kind}'")


def metric_names(spec: ShardSpec) -> list[str]:
    """The metric names a shard of *spec* reports - what a degraded
    result must still carry so the merge stays shaped."""
    if spec.kind == "mc_transient":
        return [m.name for m in decode_measures(spec.measures)]
    if spec.kind == "mc_dc":
        return sorted(spec.outputs)
    raise AnalysisError(f"unknown shard kind '{spec.kind}'")


def degraded_shard_result(spec: ShardSpec, error: BaseException,
                          attempts: int,
                          site: str = "shard") -> ShardResult:
    """The deterministic degraded form of a shard that exhausted its
    retries: every lane of the owned span NaN-frozen, the whole span
    counted in ``n_failed``, and a structured
    :class:`~repro.errors.FailureRecord` attached.

    This extends the per-lane freeze semantics the MC engines have had
    since PR 1 (a diverging lane becomes NaN, not an aborted run) to
    whole-shard failures: the merge stays bit-identical on every
    unaffected span, and statistics are computed over the surviving
    lanes.  *site* distinguishes execution failures (``"shard"``, the
    default) from a shard no endpoint would even accept
    (``"transport"`` - see :class:`~repro.service.resilience.
    WorkerPool`).
    """
    record = FailureRecord.from_exception(
        error, site=site, attempts=attempts, start=spec.start,
        stop=spec.stop)
    samples = {name: np.full(spec.n_lanes, np.nan)
               for name in metric_names(spec)}
    return ShardResult(kind=spec.kind, start=spec.start, stop=spec.stop,
                       samples=samples, n_failed=spec.n_lanes,
                       workload_key=spec.workload_key(),
                       failures=[record])


class MergedShards(NamedTuple):
    """Span-merged shard results: concatenated samples, total failed
    lanes, and the failure records of degraded shards."""

    samples: dict
    n_failed: int
    failures: list

    def statistics(self) -> tuple[dict, dict]:
        """``(stats, failed_metrics)``: each metric's
        :func:`~repro.stats.describe` over its finite samples, and its
        count of non-finite (failed or degraded) lanes.

        Raises :class:`~repro.errors.MeasurementError` when a metric
        has fewer than two finite samples.
        """
        stats, failed = {}, {}
        for name, vals in self.samples.items():
            good = vals[np.isfinite(vals)]
            failed[name] = int(vals.size - good.size)
            if good.size < 2:
                raise MeasurementError(
                    f"Monte-Carlo metric '{name}' failed on almost all "
                    "lanes")
            stats[name] = describe(good)
        return stats, failed


def merge_shard_results(results: list[ShardResult]) -> MergedShards:
    """Merge shard results in span order.

    Returns :class:`MergedShards` ``(samples, n_failed, failures)``
    where *samples* maps metric name to the concatenated array.
    Refuses shards from different workloads (mismatched workload keys)
    and any non-contiguous span coverage - naming the duplicate,
    overlapping, or missing span precisely, because a distributed merge
    that silently drops or doubles a span corrupts statistics without
    any downstream symptom.
    """
    if not results:
        raise AnalysisError("no shard results to merge")
    ordered = sorted(results, key=lambda r: (r.start, r.stop))
    key = ordered[0].workload_key
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.workload_key != key:
            raise AnalysisError(
                f"refusing to merge shards from different workloads: "
                f"span [{cur.start}, {cur.stop}) has workload key "
                f"{cur.workload_key[:12]}..., expected {key[:12]}...")
        if cur.start == prev.start and cur.stop == prev.stop:
            raise AnalysisError(
                f"duplicate shard span [{cur.start}, {cur.stop}) in "
                f"merge (same span delivered twice - a re-dispatched "
                f"shard was not deduplicated)")
        if cur.start < prev.stop:
            raise AnalysisError(
                f"overlapping shard spans: [{prev.start}, {prev.stop}) "
                f"overlaps [{cur.start}, {cur.stop}) on "
                f"[{cur.start}, {min(prev.stop, cur.stop)})")
        if cur.start > prev.stop:
            raise AnalysisError(
                f"gap in shard coverage: span [{prev.stop}, "
                f"{cur.start}) is missing between [{prev.start}, "
                f"{prev.stop}) and [{cur.start}, {cur.stop})")
    samples = {name: np.concatenate([r.samples[name] for r in ordered])
               for name in ordered[0].samples}
    failures = [f for r in ordered for f in r.failures]
    return MergedShards(samples, sum(r.n_failed for r in ordered),
                        failures)
