#!/usr/bin/env python3
"""Generate the reference outputs that the workloads' checks compare against.

    python3 perfbench/make_reference.py

Writes two files next to this script, each with the command that made it:

``reference_smile.json``
    The ``smile`` workload's smile (same model, state, expiries and strikes,
    one step per day, default block size) priced with ``REF_PATHS`` paths and
    a seed outside the 32-bit range the workload's per-op seeds are drawn
    from, with the path count, seed, steps per day and runtime.  A workload
    op passes when each of its vols lies within five combined standard
    errors of this one, so any correct change of random stream still passes
    and a wrong smile fails.

``reference_expansion.json``
    ``expansion_integrals`` of the ``calibrate`` workload's model at the
    fixed state ``START``, at every calibration expiry.  The premia round
    trip cannot see an error in these integrals (the market and the fit
    use the same ones), so each calibrate op also compares them with this
    file.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tailvol import pricer  # noqa: E402

from bench_workloads import (  # noqa: E402
    REFERENCE_EXPANSION, REFERENCE_SMILE, expansion_inputs, integrals_record,
    reference_integrals, run_smile, smile_inputs,
)

COMMAND = "python3 perfbench/make_reference.py"
REF_PATHS = 4_000_000
REF_SEED = 10**12


def machine() -> str:
    return f"{platform.machine()}, Python {platform.python_version()}"


def make_smile() -> None:
    cfg = pricer.McConfig(n_paths=REF_PATHS, seed=REF_SEED)
    t0 = time.perf_counter()
    surface = run_smile(cfg)
    runtime = time.perf_counter() - t0
    if surface.dropped:
        raise SystemExit(f"reference dropped strikes: {surface.dropped}")
    out = {
        "command": COMMAND,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "steps_per_day": cfg.steps_per_day,
        "antithetic": cfg.antithetic,
        "block_size": cfg.block_size,
        "runtime_s": round(runtime, 1),
        "machine": machine(),
        "inputs": smile_inputs(),
        "horizons": [float(t) for t in surface.expiries],
        "strikes": [float(k) for k in surface.strikes[0]],
        "vols": [[float(v) for v in vols] for vols in surface.vols],
        "stderrs": [[float(e) for e in errs] for errs in surface.stderrs],
    }
    REFERENCE_SMILE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE_SMILE} in {runtime:.1f}s")


def make_expansion() -> None:
    t0 = time.perf_counter()
    integrals = [reference_integrals(t) for t in expansion_inputs()["expiries"]]
    runtime = time.perf_counter() - t0
    out = {
        "command": COMMAND,
        "runtime_s": round(runtime, 1),
        "machine": machine(),
        "inputs": expansion_inputs(),
        "integrals": [integrals_record(ints) for ints in integrals],
    }
    REFERENCE_EXPANSION.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE_EXPANSION} in {runtime:.1f}s")


def main() -> int:
    make_expansion()
    make_smile()
    return 0


if __name__ == "__main__":
    sys.exit(main())
