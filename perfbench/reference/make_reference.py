"""Generate ``mc_reference.json``: high-N Monte-Carlo reference sigmas.

    python3 perfbench/reference/make_reference.py [--only KEY ...]

For each workload, one Monte-Carlo run of its own testbench with
exactly the measures and settings its timed Monte-Carlo requests use,
at a sample count far above the in-run one.  The entry's ``key`` holds
the measures and the settings; the benchmark refuses to run when they
differ from its own.  Changing a workload's testbench means running
this script again.  The seed, N, wall time and the hardware note are stored
beside each sigma.  The ladder entry also stores the method's own
sigmas, the committed reference of the ladder workload's correctness
check.

The equal-accuracy metric built on these numbers
(``mc_equal_accuracy_s``) is

    dev   = max over measures |sigma_method - sigma_ref| / sigma_ref
    N_eq  = smallest N with 1.96 / sqrt(2 N) <= dev
            (repro.stats.sigma_relative_ci_halfwidth), or N_ref when
            dev <= 1.96 / sqrt(2 N_ref) (the reference cannot resolve
            a smaller deviation)
    mc_equal_accuracy_s = N_eq / mc_samples_per_s
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.montecarlo import monte_carlo_transient  # noqa: E402
from repro.stats import sigma_relative_ci_halfwidth  # noqa: E402

from perfbench import workloads as wl  # noqa: E402

OUT = Path(__file__).resolve().parent / "mc_reference.json"

#: Reference sample count and seed per workload.
PLAN = {
    "comparator": (wl.ComparatorDesignLoop, 1024, 20261001),
    "logic_path": (wl.LogicPathValidation, 4000, 20261002),
    "ladder": (wl.LadderLargeState, 1024, 20261003),
    "service_rc": (wl.ServiceMix, 4000, 20261004),
}

FORMULA = ("dev = max over measures |sigma_method - sigma_ref| / sigma_ref;"
           " N_eq = smallest N with sigma_relative_ci_halfwidth(N) <= dev,"
           " or N_ref when dev <= sigma_relative_ci_halfwidth(N_ref);"
           " mc_equal_accuracy_s = N_eq / mc_samples_per_s")


def _reference(cls, n, seed, workers):
    w = cls()
    circuit = w.mc_testbench()
    settings = w.mc_settings()
    t0 = time.perf_counter()
    mc = monte_carlo_transient(
        circuit, w.mc_measures(), n=n,
        t_stop=settings["t_stop"], dt=settings["dt"],
        window=tuple(settings["window"]), seed=seed,
        chunk_size=w.mc_chunk, backend=settings.get("backend"),
        n_workers=workers)
    wall = time.perf_counter() - t0
    entry = {"mc": _entry(w.reference_key(), n, seed, mc, wall, workers)}
    if cls is wl.LadderLargeState:
        res = wl.AnalysisSession().run(
            w.request(w.build(None), w.cold_measures()))
        entry["method"] = {
            "sigma": {m.name: res.sigma(m.name) for m in w.cold_measures()},
            "rtol": 1e-6,
            "note": "the method's own sigmas (matrix-free PSS + LPTV on "
                    "the sparse backend); the tolerance covers BLAS and "
                    "GMRES round-off across machines",
        }
    return entry


def _entry(key, n, seed, mc, wall, workers):
    if mc.n_failed:
        raise RuntimeError(f"{mc.n_failed} reference lanes failed")
    return {
        "key": key,
        "n": n, "seed": seed,
        "sigma": {k: st.std for k, st in mc.stats.items()},
        "mean": {k: st.mean for k, st in mc.stats.items()},
        "ci_halfwidth": sigma_relative_ci_halfwidth(n),
        "wall_s": wall,
        "workers": workers,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="*", choices=sorted(PLAN))
    parser.add_argument("--workers", type=int,
                        default=max(1, os.cpu_count() or 1))
    args = parser.parse_args()
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    for key in args.only or PLAN:
        cls, n, seed = PLAN[key]
        data[key] = _reference(cls, n, seed, args.workers)
        print(key, json.dumps(data[key]["mc"]["sigma"]),
              f"{data[key]['mc']['wall_s']:.1f} s", flush=True)
        data["formula"] = FORMULA
        OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
