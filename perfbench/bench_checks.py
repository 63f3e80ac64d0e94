"""Correctness checks the benchmark applies to every operation's output.

Each check returns a list of problems; an empty list means the output
passed.  The checks take plain numbers, strings and bytes so they can be
tested on perturbed outputs without running a workload.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PREMIA_TOL = 1e-6
INTEGRALS_RTOL = 1e-9
SMILE_N_SIGMA = 5.0


def check_premia(got: tuple[float, float, float], want: tuple[float, float, float],
                 tol: float = PREMIA_TOL) -> list[str]:
    """Recovered (lambda2, lambda3, lambda4) must match the generator to ``tol``."""
    problems = []
    for name, g, w in zip(("lambda2", "lambda3", "lambda4"), got, want):
        if not (math.isfinite(g) and abs(g - w) <= tol):
            problems.append(f"{name} recovered {g!r}, generator {w!r} (tol {tol:g})")
    return problems


def check_integrals(got: dict, want: dict, rtol: float = INTEGRALS_RTOL) -> list[str]:
    """Expansion integrals at one maturity must match the stored reference.

    ``total_variance``, ``jxf``, ``jff`` and ``jmu`` must each agree to
    ``rtol`` of their largest reference entry; today's quadrature agrees
    with itself at twice the panel density to about 1e-15.
    """
    if got["maturity"] != want["maturity"]:
        return [f"integrals at maturity {got['maturity']!r}, reference at {want['maturity']!r}"]
    problems = []
    for key in ("total_variance", "jxf", "jff", "jmu"):
        g, w = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
        if g.shape != w.shape:
            problems.append(f"T={want['maturity']:.4g} {key}: shape {g.shape}, reference {w.shape}")
            continue
        err = float(np.max(np.abs(g - w)) / np.max(np.abs(w)))
        if not err <= rtol:
            problems.append(f"T={want['maturity']:.4g} {key}: relative error {err:.3g} "
                            f"against the reference (tol {rtol:g})")
    return problems


def check_smile(strikes, vols, stderrs, dropped, reference: dict,
                n_sigma: float = SMILE_N_SIGMA) -> list[str]:
    """Compare a Monte Carlo smile with the stored high-path reference.

    ``strikes``, ``vols`` and ``stderrs`` hold one sequence per expiry, in
    the reference's expiry order.  No strike may be dropped, and every vol
    must lie within ``n_sigma`` combined standard errors of the reference.
    """
    problems = [f"dropped expiry {t} strike {k}: {why}" for t, k, why in dropped]
    ref_k, ref_v, ref_e = reference["strikes"], reference["vols"], reference["stderrs"]
    if len(strikes) != len(ref_v):
        return problems + [f"{len(strikes)} expiries, reference has {len(ref_v)}"]
    for j, (ks, vs, es) in enumerate(zip(strikes, vols, stderrs)):
        if [float(k) for k in ks] != [float(k) for k in ref_k]:
            problems.append(f"expiry #{j}: strikes {list(ks)} differ from the reference grid")
            continue
        for k, v, e, rv, re in zip(ks, vs, es, ref_v[j], ref_e[j]):
            tol = n_sigma * math.hypot(e, re)
            if not (math.isfinite(v) and math.isfinite(tol) and abs(v - rv) <= tol):
                problems.append(
                    f"expiry #{j} strike {k}: vol {v!r} vs reference {rv!r} "
                    f"(allowed {tol:.3g} = {n_sigma:g} combined standard errors)"
                )
    return problems


def check_exit_codes(codes: dict[str, int]) -> list[str]:
    """Every CLI command must exit 0."""
    return [f"{cmd} exited {rc}" for cmd, rc in codes.items() if rc != 0]


def check_same_bytes(got: Path, want: Path) -> list[str]:
    """An artifact written by a CLI process must equal the in-process one."""
    if not got.is_file():
        return [f"{got.name} was not written"]
    if not want.is_file():
        return [f"in-process run wrote no {want.name}"]
    if got.read_bytes() != want.read_bytes():
        return [f"{got.name} differs from the in-process artifact"]
    return []


def check_varswap_csv(text: str, expected: list[tuple[float, float]]) -> list[str]:
    """The varswap CSV must list ``(maturity, total_variance)`` exactly as
    the library prices it, with the fair vol derived from the same total."""
    lines = text.splitlines()
    if not lines or lines[0] != "maturity_years,total_variance,fair_vol":
        return [f"unexpected varswap header {lines[:1]}"]
    rows = lines[1:]
    if len(rows) != len(expected):
        return [f"varswap has {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (t, total) in zip(rows, expected):
        want = f"{t!r},{total!r},{(total / t) ** 0.5!r}"
        if row != want:
            problems.append(f"varswap row {row!r}, library gives {want!r}")
    return problems
