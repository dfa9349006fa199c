"""The paper's analysis flows.

:func:`transient_mismatch_analysis` is the headline method (paper Fig. 2):

1. convert every declared mismatch parameter into its equivalent
   pseudo-noise injection (Section III),
2. find the periodic steady state (Section IV),
3. solve the LPTV small-signal system once for all injections
   (Section IV/V) - the time-domain shooting formulation, exact on the
   PSS discretisation,
4. map the periodic sensitivity waveforms through the requested measures
   and assemble contribution tables (Section V), from which variances,
   correlations (Eq. 12) and design sensitivities (Section VII) all
   follow without further simulation.

:func:`dc_mismatch_analysis` is the prior art the paper extends ([8], [9]
- `.SENS`/dcmatch): the same machinery degenerates to a single adjoint
solve at the DC operating point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..analysis.dcop import dc_operating_point
from ..analysis.lptv import (PeriodicLinearization, SensitivitySolution,
                             orbit_sensitivities)
from ..analysis.mna import CompiledCircuit, Injection, ParamState
from ..analysis.pss import PssOptions, PssResult
from ..circuit.elements import ParamKey
from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from .contributions import (ContributionTable, correlation, covariance)
from .measures import Measure


@dataclass
class MismatchAnalysisResult:
    """Everything one pseudo-noise mismatch analysis produces.

    The per-measure :class:`ContributionTable` objects carry the full
    linear model; helper methods expose the paper's derived quantities.
    """

    compiled: CompiledCircuit
    pss: PssResult | None
    sens: SensitivitySolution | None
    measures: list[Measure]
    nominal: dict[str, float]
    tables: dict[str, ContributionTable]
    runtime_seconds: float = 0.0
    #: Wall-clock split: pss / linearization+solve / measures.
    runtime_breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def keys(self) -> list[ParamKey]:
        first = next(iter(self.tables.values()))
        return first.keys

    def sigma(self, metric: str) -> float:
        """Standard deviation of *metric* (paper Eq. 1 generalised)."""
        return self._table(metric).sigma

    def variance(self, metric: str) -> float:
        return self._table(metric).variance

    def mean(self, metric: str) -> float:
        """Nominal (zero-mismatch) value; the linear model's mean."""
        return self.nominal[metric]

    def contributions(self, metric: str) -> ContributionTable:
        return self._table(metric)

    def correlation(self, metric_a: str, metric_b: str) -> float:
        """Correlation between two metrics (paper Eq. 12, Table I)."""
        return correlation(self._table(metric_a), self._table(metric_b))

    def covariance(self, metric_a: str, metric_b: str) -> float:
        return covariance(self._table(metric_a), self._table(metric_b))

    def correlation_matrix(self) -> tuple[list[str], np.ndarray]:
        names = [m.name for m in self.measures]
        k = len(names)
        rho = np.eye(k)
        for i in range(k):
            for j in range(i + 1, k):
                rho[i, j] = rho[j, i] = self.correlation(names[i], names[j])
        return names, rho

    def report(self, top: int = 8) -> str:
        lines = [f"pseudo-noise mismatch analysis of "
                 f"'{self.compiled.circuit.name}'"]
        if self.pss is not None:
            lines.append(f"  PSS: f0 = {self.pss.f0:.6g} Hz, "
                         f"{self.pss.n_steps} pts, engine "
                         f"{self.pss.engine}")
        lines.append(f"  parameters: {len(self.keys)} mismatch sources; "
                     f"runtime {self.runtime_seconds:.2f} s")
        for m in self.measures:
            t = self._table(m.name)
            lines.append("")
            lines.append(f"  {m.name}: nominal {self.nominal[m.name]:.6g}, "
                         f"sigma {t.sigma:.6g}")
            lines.extend("    " + row
                         for row in t.summary(top).splitlines()[1:])
        return "\n".join(lines)

    def _table(self, metric: str) -> ContributionTable:
        try:
            return self.tables[metric]
        except KeyError:
            raise AnalysisError(
                f"no metric named '{metric}'; available: "
                f"{sorted(self.tables)}") from None


def _as_compiled(circuit, backend=None) -> CompiledCircuit:
    """Compile *circuit* if needed; *backend* (name or instance, see
    :mod:`repro.linalg`) overrides the linear-solver backend.

    A ``CompiledCircuit`` passed with a backend override is shallow-
    copied so the per-call override never mutates the caller's object
    (use :meth:`CompiledCircuit.set_backend` for a persistent switch).
    """
    if isinstance(circuit, CompiledCircuit):
        if backend is None:
            return circuit
        import copy
        return copy.copy(circuit).set_backend(backend)
    if isinstance(circuit, Circuit):
        from ..analysis.mna import compile_circuit
        return compile_circuit(circuit, backend=backend)
    raise TypeError("expected a Circuit or CompiledCircuit")


def run_transient_mismatch(
        compiled: CompiledCircuit, measures: list[Measure],
        pss_result: PssResult,
        injections: list[Injection] | None = None,
        param_covariance: np.ndarray | None = None,
) -> MismatchAnalysisResult:
    """Engine of the sensitivity analysis, given the PSS orbit.

    This is the post-PSS half of the paper's flow (steps 1, 3-4 of the
    module docstring): build pseudo-noise injections on the orbit,
    solve the LPTV system once for all of them, and map the sensitivity
    waveforms through the measures.  Without explicit *injections* the
    LPTV solution comes from the orbit's cache
    (:func:`~repro.analysis.lptv.orbit_sensitivities`), so a repeat on
    the same *pss_result* costs only the measures.  Callers obtain
    *pss_result* themselves - :meth:`AnalysisSession.transient_mismatch
    <repro.service.session.AnalysisSession.transient_mismatch>` from
    its orbit cache, direct callers from :func:`~repro.analysis.pss.
    pss` - and the session patches ``runtime_breakdown["pss"]`` with
    the true orbit cost afterwards.
    """
    t_start = time.perf_counter()
    if injections is None and compiled is pss_result.compiled:
        sens = orbit_sensitivities(pss_result)
    else:
        if injections is None:
            injections = compiled.mismatch_injections(pss_result.state,
                                                      pss_result.x)
        if not injections:
            raise AnalysisError(
                f"circuit '{compiled.circuit.name}' declares no mismatch "
                "parameters")
        sens = PeriodicLinearization(pss_result).solve(injections)
    t_lptv = time.perf_counter()

    sigmas = sens.sigmas
    keys = sens.keys
    nominal: dict[str, float] = {}
    tables: dict[str, ContributionTable] = {}
    for m in measures:
        nominal[m.name] = m.measure_pss(pss_result)
        s = m.sensitivities(sens)
        tables[m.name] = ContributionTable(
            m.name, keys, s, sigmas, param_covariance=param_covariance)
    t_end = time.perf_counter()

    return MismatchAnalysisResult(
        compiled=compiled, pss=pss_result, sens=sens, measures=measures,
        nominal=nominal, tables=tables,
        runtime_seconds=t_end - t_start,
        runtime_breakdown={"pss": 0.0,
                           "lptv": t_lptv - t_start,
                           "measures": t_end - t_lptv})


def _positional_shim(func_name: str, order: tuple[str, ...],
                     args: tuple, kwargs: dict) -> dict:
    """Map legacy positional arguments (beyond circuit + outputs) onto
    their keyword names, with a :class:`DeprecationWarning`.

    The public entry points froze their keyword surface in the
    ``repro.api`` facade; positional call shapes like
    ``dc_mismatch_analysis(ckt, outs, None, cov)`` still work but warn,
    so they can be retired without breaking anyone silently.
    """
    if not args:
        return kwargs
    if len(args) > len(order):
        raise TypeError(
            f"{func_name}() takes at most {2 + len(order)} positional "
            f"arguments ({2 + len(args)} given)")
    import warnings
    names = order[:len(args)]
    warnings.warn(
        f"passing {', '.join(names)} positionally to {func_name}() is "
        "deprecated; pass them as keywords",
        DeprecationWarning, stacklevel=3)
    merged = dict(kwargs)
    for name, value in zip(names, args):
        if name in merged:
            raise TypeError(
                f"{func_name}() got multiple values for argument "
                f"'{name}'")
        merged[name] = value
    return merged


def _as_request(kind: str, circuit, requestable: bool, **kwargs):
    """Build the :class:`~repro.service.requests.AnalysisRequest` form
    of a free-function call, or ``None`` when the call can only run on
    the in-process flow path (live engine objects - a custom state, a
    precomputed orbit, a backend instance, an unregistered measure, an
    already-compiled circuit - have no serializable identity)."""
    if not requestable:
        return None
    if not isinstance(circuit, Circuit):
        return None
    from ..service.requests import AnalysisRequest
    try:
        return AnalysisRequest.build(kind, circuit, **kwargs)
    except TypeError:
        # outside the closed serialization registry (e.g. a custom
        # Measure): in-process only
        return None


#: Historical positional order of :func:`transient_mismatch_analysis`,
#: used by the deprecation shim that maps stray positionals to keywords.
_TRANSIENT_ORDER = ("period", "oscillator_anchor", "t_settle",
                    "dt_settle", "state", "pss_options", "injections",
                    "param_covariance", "precomputed_pss", "backend",
                    "variations")

_DC_ORDER = ("state", "param_covariance", "backend", "variations")


def transient_mismatch_analysis(circuit, measures: list[Measure],
                                *args, **kwargs):
    """Run the paper's sensitivity-based transient mismatch analysis.

    Keyword-only beyond *circuit* and *measures* (legacy positional
    call shapes still work with a :class:`DeprecationWarning`); see
    :func:`_transient_mismatch_analysis` for the full contract.
    """
    kwargs = _positional_shim("transient_mismatch_analysis",
                              _TRANSIENT_ORDER, args, kwargs)
    return _transient_mismatch_analysis(circuit, measures, **kwargs)


def _transient_mismatch_analysis(
        circuit, measures: list[Measure], *,
        period: float | None = None,
        oscillator_anchor: str | None = None,
        t_settle: float | None = None,
        dt_settle: float | None = None,
        state: ParamState | None = None,
        pss_options: PssOptions | None = None,
        injections: list[Injection] | None = None,
        param_covariance: np.ndarray | None = None,
        precomputed_pss: PssResult | None = None,
        backend: str | None = None,
        variations=None,
        retry=None,
        n_workers: int | None = None,
) -> MismatchAnalysisResult:
    """Run the paper's sensitivity-based transient mismatch analysis.

    Exactly one of *period* (driven circuit) or *oscillator_anchor*
    (autonomous circuit, with *t_settle*/*dt_settle* for the startup
    transient) must be given, unless *precomputed_pss* is supplied.

    This is a thin wrapper over the process-default
    :class:`~repro.service.session.AnalysisSession`
    (:func:`repro.service.default_session`): serializable calls are
    expressed as an :class:`~repro.service.requests.AnalysisRequest`
    and executed through :meth:`AnalysisSession.run`, so the in-process
    path and a future daemon submitting the identical request run
    byte-for-byte the same pipeline - and repeats of an identical call
    hit the session's result memo.  Calls carrying live engine objects
    (a custom *state*, explicit *injections*, a *precomputed_pss*, a
    backend instance, an unregistered measure, or an already-compiled
    circuit) run the same session flow directly.  Either way the
    compile and the PSS orbit go through the session's
    content-addressed caches, and results are bit-identical to a cold,
    cache-free run.  Use a dedicated :class:`AnalysisSession` (or its
    :meth:`~repro.service.session.AnalysisSession.transient_mismatch`)
    for isolated cache lifetimes, request memoization and job fan-out.

    Parameters
    ----------
    circuit:
        A :class:`Circuit` or :class:`CompiledCircuit`.
    measures:
        Performance metrics to characterise.
    injections:
        Restrict/override the mismatch sources (default: every
        declaration in the circuit).
    param_covariance:
        Full mismatch covariance matrix for correlated mismatch
        (paper Eq. 6); defaults to independent parameters.
    variations:
        Declarative :class:`~repro.variation.VariationSpec` as an
        alternative to *param_covariance* (mutually exclusive);
        lowered onto the circuit's declaration order, bit-identical
        to the equivalent hand-built matrix.
    backend:
        Linear-solver backend name or instance (``"dense"``,
        ``"cached"``, ``"sparse"``; see :mod:`repro.linalg`); default
        auto-selects by circuit size.
    retry, n_workers:
        Accepted for keyword uniformity with the Monte-Carlo entry
        points; a single deterministic solve has nothing to retry or
        fan out, so they are checked for shape and otherwise ignored.

    Returns
    -------
    MismatchAnalysisResult
    """
    from ..service.session import default_session
    session = default_session()
    request = _as_request(
        "transient_mismatch", circuit,
        requestable=(state is None and injections is None
                     and precomputed_pss is None
                     and (backend is None or isinstance(backend, str))),
        measures=measures, period=period,
        oscillator_anchor=oscillator_anchor, t_settle=t_settle,
        dt_settle=dt_settle, pss_options=pss_options,
        param_covariance=param_covariance, variations=variations,
        retry=retry, n_workers=n_workers)
    if request is not None:
        return session.run(request).detail
    if variations is not None:
        if param_covariance is not None:
            raise ValueError(
                "give param_covariance or variations, not both")
        param_covariance = variations.covariance(circuit)
    return session.transient_mismatch(
        circuit, measures, period=period,
        oscillator_anchor=oscillator_anchor, t_settle=t_settle,
        dt_settle=dt_settle, state=state, pss_options=pss_options,
        injections=injections, param_covariance=param_covariance,
        precomputed_pss=precomputed_pss, backend=backend)


def run_dc_mismatch(compiled: CompiledCircuit,
                    outputs: dict[str, str | tuple[str, str]],
                    state: ParamState | None = None,
                    param_covariance: np.ndarray | None = None,
                    ) -> MismatchAnalysisResult:
    """Engine of the DC mismatch analysis, given the compiled circuit.

    One adjoint solve per output: with ``G dx = -di/dp``, the output
    sensitivity is ``S_i = -(G^-T c)^T (di/dp)_i`` (the generalised
    adjoint network of Director & Rohrer, [25] in the paper).  ``G`` is
    factored once through the circuit's linear-solver backend and the
    factorization is reused (transposed) across all outputs.
    """
    state = state or compiled.nominal
    t_start = time.perf_counter()

    dc = dc_operating_point(compiled, state)
    x_pad = compiled.pad(dc.x)
    _, g_pad, f_pad = compiled.buffers(())
    compiled.assemble(state, x_pad, 0.0, g_pad, f_pad)
    n = compiled.n
    g = g_pad[:n, :n]

    injections = compiled.mismatch_injections(state, dc.x[None, :])
    if not injections:
        raise AnalysisError("circuit declares no mismatch parameters")
    di = np.stack([inj.di_dp[0] for inj in injections], axis=-1)  # (n, m)
    sigmas = np.array([inj.sigma for inj in injections])
    keys = [inj.key for inj in injections]

    nominal: dict[str, float] = {}
    tables: dict[str, ContributionTable] = {}
    measures: list[Measure] = []
    g_fact = compiled.backend.factor(g)
    from .measures import DcLevel
    for name, spec in outputs.items():
        pos, neg = (spec if isinstance(spec, tuple) else (spec, None))
        c_vec = np.zeros(n)
        c_vec[compiled.node_index[pos]] = 1.0
        if neg is not None:
            c_vec[compiled.node_index[neg]] -= 1.0
        lam = g_fact.solve(c_vec, trans=True)
        s = -(lam @ di)
        nominal[name] = float(c_vec @ dc.x)
        tables[name] = ContributionTable(name, keys, s, sigmas,
                                         param_covariance=param_covariance)
        measures.append(DcLevel(name, pos, neg))

    t_end = time.perf_counter()
    return MismatchAnalysisResult(
        compiled=compiled, pss=None, sens=None, measures=measures,
        nominal=nominal, tables=tables, runtime_seconds=t_end - t_start,
        runtime_breakdown={"dc": t_end - t_start})


def dc_mismatch_analysis(circuit,
                         outputs: dict[str, str | tuple[str, str]],
                         *args, **kwargs):
    """DC mismatch analysis; keyword-only beyond *circuit* and
    *outputs* (legacy positional call shapes still work with a
    :class:`DeprecationWarning`).  See :func:`_dc_mismatch_analysis`
    for the full contract."""
    kwargs = _positional_shim("dc_mismatch_analysis", _DC_ORDER,
                              args, kwargs)
    return _dc_mismatch_analysis(circuit, outputs, **kwargs)


def _dc_mismatch_analysis(circuit,
                          outputs: dict[str, str | tuple[str, str]], *,
                          state: ParamState | None = None,
                          param_covariance: np.ndarray | None = None,
                          backend: str | None = None,
                          variations=None,
                          retry=None,
                          n_workers: int | None = None,
                          ) -> MismatchAnalysisResult:
    """DC mismatch (dcmatch / [8]) analysis - the method the paper extends.

    A thin wrapper over the process-default
    :class:`~repro.service.session.AnalysisSession`: serializable calls
    run as an :class:`~repro.service.requests.AnalysisRequest` through
    :meth:`AnalysisSession.run` (memoized, daemon-identical), calls
    carrying live objects run the session flow directly; the compile
    goes through the session's content-addressed cache either way
    (results are bit-identical to a cache-free run), and the adjoint
    engine :func:`run_dc_mismatch` does the rest.

    Parameters
    ----------
    outputs:
        Metric name -> node (or ``(pos, neg)`` pair) whose DC value's
        variation is wanted.
    variations:
        Declarative :class:`~repro.variation.VariationSpec` as an
        alternative to *param_covariance* (mutually exclusive).
    retry, n_workers:
        Accepted for keyword uniformity with the Monte-Carlo entry
        points; checked for shape and otherwise ignored.
    """
    from ..service.session import default_session
    session = default_session()
    request = _as_request(
        "dc_mismatch", circuit,
        requestable=(state is None
                     and (backend is None or isinstance(backend, str))),
        outputs=outputs, param_covariance=param_covariance,
        variations=variations, retry=retry, n_workers=n_workers)
    if request is not None:
        return session.run(request).detail
    if variations is not None:
        if param_covariance is not None:
            raise ValueError(
                "give param_covariance or variations, not both")
        param_covariance = variations.covariance(circuit)
    return session.dc_mismatch(
        circuit, outputs, state=state,
        param_covariance=param_covariance, backend=backend)
