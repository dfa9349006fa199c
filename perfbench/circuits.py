"""Circuits the benchmark builds itself (the paper testbenches come
from :mod:`repro.circuits`).

Workloads call these through the module (``circuits.rc_lowpass(...)``)
so that the traced run can wrap them like any other layer function.
"""

from __future__ import annotations

from repro.circuit import Circuit, Sine, default_technology

#: Drive frequency of the ladder [Hz] and its PSS period [s].
LADDER_FREQ = 5e6
LADDER_PERIOD = 1.0 / LADDER_FREQ


def mismatch_ladder(n_sections: int, stride: int) -> Circuit:
    """Sine-driven RC ladder with R and C mismatch on every
    *stride*-th section and one MOSFET load at the far end.

    The device makes ``G(t)`` state-dependent, so the orbit
    linearisation stores and factors every step - the nonlinear-circuit
    cost; a purely linear ladder would take the time-invariant shortcut.
    """
    ckt = Circuit(f"pss_ladder{n_sections}")
    ckt.add_vsource("VIN", "n0", "0",
                    wave=Sine(amplitude=0.5, freq=LADDER_FREQ, offset=0.5))
    for k in range(1, n_sections + 1):
        if k % stride == 0:
            ckt.add_resistor(f"R{k}", f"n{k - 1}", f"n{k}", 100.0,
                             sigma_rel=0.05)
            ckt.add_capacitor(f"C{k}", f"n{k}", "0", 1e-12,
                              sigma_rel=0.02)
        else:
            ckt.add_resistor(f"R{k}", f"n{k - 1}", f"n{k}", 100.0)
            ckt.add_capacitor(f"C{k}", f"n{k}", "0", 1e-12)
    ckt.add_mosfet("MLOAD", f"n{n_sections}", f"n{n_sections - 1}",
                   "0", "0", w=2e-6, l=0.26e-6,
                   tech=default_technology())
    return ckt


def rc_lowpass(r: float = 1e3, c: float = 100e-12,
               name: str = "rc_lowpass") -> Circuit:
    """Sine-driven RC low-pass with R and C mismatch."""
    ckt = Circuit(name)
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", r, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", c, sigma_rel=0.02)
    return ckt


def cs_amplifier(w: float = 2e-6, r_load: float = 2e3) -> Circuit:
    """Sine-driven common-source amplifier with load mismatch."""
    tech = default_technology()
    ckt = Circuit("cs_amp")
    ckt.add_vsource("VDD", "vdd", "0", dc=tech.vdd)
    ckt.add_vsource("VG", "g", "0",
                    wave=Sine(amplitude=0.25, freq=1e6, offset=0.7))
    ckt.add_resistor("RL", "vdd", "d", r_load, sigma_rel=0.02)
    ckt.add_mosfet("M1", "d", "g", "0", "0", w=w, l=0.26e-6, tech=tech)
    ckt.add_capacitor("CL", "d", "0", 20e-15)
    return ckt
