"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload comparator_design_loop \\
        --seed 1 --seconds 20 --trace 0

Run from the repository root (the checkout holding ``src/repro``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it (``details: {...}``) qualifies them: sample counts, the tail
percentile, the equal-accuracy sample count, set-up parts, failures.
See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: ``workloads.WORKLOADS`` by name, spelled out so that a bad argument
#: fails before numpy and the program are imported.
WORKLOADS = ("comparator_design_loop", "logic_path_validation",
             "ladder_large_state", "service_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import runner
    import_s = time.perf_counter() - T_START

    out = runner.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s)
    print("details: " + json.dumps(out["details"], default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
