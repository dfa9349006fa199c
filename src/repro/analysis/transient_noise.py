"""Time-domain (transient) noise analysis - the paper's Fig. 5(a).

The paper contrasts two ways of simulating noise/pseudo-noise effects on
a transient response: brute-force *transient noise* integration [18],
which spends most of its effort on the settling phase, and the LPTV
analysis on the periodic steady state (Fig. 5(b)), which this package
implements as the primary engine.  This module provides the former, so
the comparison can be reproduced and physical-noise ensembles
sanity-checked.  Its only caller is the kT/C test
(``tests/test_transient_noise.py``); no benchmark runs it.

Method: every (white) noise source is sampled per time step as a
Gaussian current with variance ``S0 / (2 dt)`` (single-sided PSD folded
to the Nyquist band of the step), flicker sources are synthesised by
FFT spectral shaping, and the stochastic currents ride on a batched
transient - each ensemble member is one batch lane, so an M-run ensemble
costs one stacked integration.

Scope note: source modulations are evaluated on the *nominal* (noise-
free) trajectory, i.e. the analysis is exact for noise that is small
relative to the bias trajectory - the same small-signal regime the LPTV
analysis assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..circuit.elements import PsdShape
from .mna import CompiledCircuit, NoiseInjection, ParamState


@dataclass
class TransientNoiseResult:
    """Ensemble of noisy transients.

    ``signals[name]`` has shape ``(K+1, n_runs)``; :meth:`sigma_t` gives
    the ensemble standard deviation at every time point.
    """

    t: np.ndarray
    signals: dict[str, np.ndarray]
    n_runs: int

    def sigma_t(self, name: str) -> np.ndarray:
        return self.signals[name].std(axis=1, ddof=1)

    def mean_t(self, name: str) -> np.ndarray:
        return self.signals[name].mean(axis=1)

    def stationary_sigma(self, name: str,
                         settle_fraction: float = 0.5) -> float:
        """RMS of the ensemble deviation over the settled tail."""
        data = self.signals[name]
        k0 = int(settle_fraction * data.shape[0])
        dev = data[k0:] - data[k0:].mean(axis=1, keepdims=True)
        return float(np.sqrt(np.mean(dev ** 2)))


def _flicker_series(rng: np.random.Generator, n_steps: int, dt: float,
                    psd0: float, shape: tuple[int, ...]) -> np.ndarray:
    """Sample paths with single-sided PSD ``psd0 / f`` via FFT shaping."""
    freqs = np.fft.rfftfreq(n_steps, dt)
    mag = np.zeros_like(freqs)
    mag[1:] = np.sqrt(psd0 / freqs[1:] / (2.0 * dt * n_steps)) * n_steps
    phases = np.exp(2j * np.pi * rng.random((len(freqs),) + shape))
    spec = mag.reshape((-1,) + (1,) * len(shape)) * phases
    spec[0] = 0.0
    return np.fft.irfft(spec, n=n_steps, axis=0) * np.sqrt(2.0)


def transient_noise_analysis(compiled: CompiledCircuit, t_stop: float,
                             dt: float, n_runs: int,
                             record: list[str],
                             state: ParamState | None = None,
                             seed: int = 0,
                             injections: list[NoiseInjection] | None = None,
                             method: str = "trap"
                             ) -> TransientNoiseResult:
    """Monte-Carlo transient noise (paper Fig. 5(a), after [18]).

    Parameters
    ----------
    n_runs:
        Ensemble size; all runs integrate as one batched system.
    injections:
        Noise sources (default: the circuit's physical noise
        declarations, with modulations evaluated at the DC operating
        point).

    Returns
    -------
    TransientNoiseResult
    """
    state = state or compiled.nominal
    if state.batched:
        raise AnalysisError("transient noise builds its own batch")
    n_steps = int(round(t_stop / dt))
    rng = np.random.default_rng(seed)

    if injections is None:
        from .dcop import dc_operating_point
        dc = dc_operating_point(compiled, state)
        injections = compiled.noise_injections(state, dc.x[None, :])
    if not injections:
        raise AnalysisError("no noise sources to inject")

    # pre-sample the stochastic amplitude of every source at every step
    amp = np.zeros((n_steps + 1, len(injections), n_runs))
    for j, src in enumerate(injections):
        if src.shape is PsdShape.WHITE:
            sigma = np.sqrt(src.psd0 / (2.0 * dt))
            amp[:, j, :] = rng.normal(0.0, sigma, (n_steps + 1, n_runs))
        else:
            amp[1:, j, :] = _flicker_series(rng, n_steps, dt, src.psd0,
                                            (n_runs,))

    # incidence vectors (constant direction x DC modulation)
    b = np.stack([src.b[0] for src in injections], axis=0)   # (m, n)

    # wrap the noise into per-batch current sources by monkey-adding a
    # time-indexed injection to the source assembly: we reuse the
    # standard transient by registering a hook through ParamState's
    # source_values is not possible, so integrate manually here.
    from .dcop import NewtonOptions

    n = compiled.n
    batch = (n_runs,)
    x_pad = np.broadcast_to(compiled.initial_padded(()),
                            batch + (n + 1,)).copy()
    if not compiled.circuit.ic:
        from .dcop import dc_operating_point
        dc = dc_operating_point(compiled, state)
        x_pad = np.broadcast_to(compiled.pad(dc.x),
                                batch + (n + 1,)).copy()

    _, g_pad, f_pad = compiled.buffers(batch)
    j_pad = np.empty_like(g_pad)
    c_over_h = compiled.capacitance(state) / dt
    theta = np.append(compiled.theta_rows(state, method), 1.0)
    newton = NewtonOptions(max_step=1.0, max_iterations=50)

    rec_idx = {name: compiled.node_index[name] for name in record}
    store = {name: np.empty((n_steps + 1, n_runs)) for name in record}
    for name, idx in rec_idx.items():
        store[name][0] = x_pad[..., idx]

    def noise_rhs(k: int) -> np.ndarray:
        """Injected currents at step k: (n_runs, n+1), sign like f."""
        out = np.zeros(batch + (n + 1,))
        cur = amp[k]                       # (m, n_runs)
        out[..., :n] = np.einsum("mr,mn->rn", cur, b)
        return out

    compiled.assemble(state, x_pad, 0.0, g_pad, f_pad)
    f_prev = f_pad + noise_rhs(0)
    x_prev = x_pad.copy()

    for k in range(1, n_steps + 1):
        t_k = k * dt
        nk = noise_rhs(k)
        # Newton on the noisy residual: fold the injection into f via a
        # shifted previous residual and a post-assembly correction
        for _ in range(newton.max_iterations):
            compiled.assemble(state, x_pad, t_k, g_pad, f_pad)
            f_pad += nk
            dx = x_pad - x_prev
            res = np.matmul(c_over_h, dx[..., None])[..., 0]
            res += theta * f_pad + (1.0 - theta) * f_prev
            np.multiply(g_pad, theta[..., :, None], out=j_pad)
            j_pad += c_over_h
            delta = np.linalg.solve(j_pad[..., :n, :n],
                                    res[..., :n, None])[..., 0]
            np.clip(delta, -newton.max_step, newton.max_step, out=delta)
            x_pad[..., :n] -= delta
            if float(np.max(np.abs(delta))) <= newton.vntol:
                break
        compiled.assemble(state, x_pad, t_k, g_pad, f_pad)
        f_prev = f_pad + nk
        np.copyto(x_prev, x_pad)
        for name, idx in rec_idx.items():
            store[name][k] = x_pad[..., idx]

    return TransientNoiseResult(t=dt * np.arange(n_steps + 1),
                                signals=store, n_runs=n_runs)
