"""References for the benchmark, computed apart from the package.

Nothing here imports ``spps``. Closed forms are used wherever they exist;
the double well is solved by a Sturm count on scipy DOP853 shooting, and
the IVPs of ``ivp_sweep`` are integrated with DOP853 from the basepoint in
both directions.

    python3 bench/references.py                  # remake bench/references.json
    python3 bench/references.py --ivp-seed 7     # ivp_sweep references as JSON
    python3 bench/references.py --well-depth 150 # Sturm-count eigenvalues only

``run.py`` reads ``references.json`` and starts this script as a separate
process for the ``ivp_sweep`` references, so scipy never enters the
measured process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import inputs

RTOL = 1e-12
ATOL = 1e-14

#: Samples per unit length for counting zeros of the shooting solution;
#: zeros of y'' = q y with |q| <= 70 are more than 0.3 apart.
ZERO_GRID = 1600


# -- double well: Sturm count -------------------------------------------------

def _well_shot(depth: float, lam: float, dense: bool):
    length = 2 * math.pi

    def rhs(x, s):
        q = depth * math.exp(-8.0 * (x - math.pi) ** 2) + lam
        return [s[1], q * s[0]]

    return solve_ivp(rhs, (0.0, length), [0.0, 1.0], method="DOP853",
                     rtol=RTOL, atol=ATOL, dense_output=dense)


def well_count(depth: float, lam: float) -> int:
    """Number of Dirichlet eigenvalues of y'' - V y = lam y above ``lam``.

    By Sturm oscillation this is the number of zeros in (0, 2 pi] of the
    solution with y(0) = 0, y'(0) = 1.
    """
    sol = _well_shot(depth, lam, dense=True)
    length = 2 * math.pi
    grid = np.linspace(0.0, length, int(ZERO_GRID * length) + 1)[1:]
    y = sol.sol(grid)[0]
    return int(np.count_nonzero(np.signbit(y[1:]) != np.signbit(y[:-1])))


def _well_end(depth: float, lam: float) -> float:
    return float(_well_shot(depth, lam, dense=False).y[0, -1])


def well_eigenvalues(depth: float, lo: float, hi: float) -> list[float]:
    """Dirichlet eigenvalues in (lo, hi), ascending.

    Bisection on the Sturm count isolates each eigenvalue, however close
    its neighbour; Brent's method on y(2 pi; lam) then polishes it.
    """
    out: list[float] = []
    stack = [(lo, hi, well_count(depth, lo), well_count(depth, hi))]
    while stack:
        a, b, na, nb = stack.pop()
        inside = na - nb
        if inside == 0:
            continue
        if inside == 1:
            out.append(brentq(lambda t: _well_end(depth, t), a, b,
                              xtol=1e-14, rtol=1e-15))
            continue
        mid = 0.5 * (a + b)
        nmid = well_count(depth, mid)
        stack.append((a, mid, na, nmid))
        stack.append((mid, b, nmid, nb))
    return sorted(out)


# -- closed forms -------------------------------------------------------------

def closed_forms() -> dict:
    c3 = inputs.THIRD_ORDER_C
    cw, w = inputs.WEIGHTED_C, inputs.WEIGHTED_W
    return {
        "dirichlet": [-float(k * k) for k in (3, 2, 1)],
        "beam": [float((k * k + 1) ** 2) for k in (1, 2, 3)],
        "third_order": [c3 - 1j * k ** 3 for k in range(-3, 4)],
        "weighted": [(cw - k * k) / w for k in range(1, 7)],
    }


def _pairs(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def eig_references() -> dict:
    forms = closed_forms()
    well = well_eigenvalues(inputs.WELL_DEPTH, -20.0, -0.1)
    return {
        "eig_interval": {
            "dirichlet": _pairs(forms["dirichlet"]),
            "beam": _pairs(forms["beam"]),
            "double_well": _pairs(well),
        },
        "eig_disk": {
            "third_order": _pairs(forms["third_order"]),
            "weighted": _pairs(forms["weighted"]),
            "double_well": _pairs(lam for lam in well if -20.0 < lam < 0.0),
        },
    }


# -- ivp_sweep: DOP853 from the basepoint -------------------------------------

def _trig_fn(params):
    terms = [(2 * math.pi * q, a, b) for q, (a, b) in enumerate(params)]

    def fn(x):
        return sum(a * math.cos(f * x) + b * math.sin(f * x)
                   for f, a, b in terms)
    return fn


def ivp_references(seed: int) -> dict:
    """Values at the check nodes of every ``ivp_sweep`` solution.

    Each IVP is integrated from the basepoint (the middle node, x = 0.5) to
    both ends of [0, 1].
    """
    data = inputs.ivp_inputs(seed)
    n = inputs.IVP_ORDER
    phi = [_trig_fn(p) for p in data["phi"]]
    weight = _trig_fn(data["weight"])
    nodes = inputs.ivp_mesh_nodes()
    check = inputs.ivp_check_nodes()
    x0 = float(nodes[len(nodes) // 2])
    xs = nodes[check]
    left, right = xs[xs < x0], xs[xs >= x0]
    solutions = []
    for lam, y0 in zip(data["lam"], data["init"]):
        lam = complex(lam)

        def rhs(x, s, lam=lam):
            top = lam * weight(x) * s[0]
            for j in range(1, n + 1):
                top -= phi[j - 1](x) * s[n - j]
            return [s[1], s[2], s[3], top]

        parts = []
        for end, t_eval in ((0.0, left[::-1]), (1.0, right)):
            sol = solve_ivp(rhs, (x0, end), np.asarray(y0, dtype=complex),
                            method="DOP853", rtol=RTOL, atol=ATOL,
                            t_eval=t_eval)
            if not sol.success:
                raise RuntimeError(f"DOP853 failed at lam={lam}: {sol.message}")
            parts.append(sol.y[0])
        y = np.concatenate([parts[0][::-1], parts[1]])
        solutions.append([y.real.tolist(), y.imag.tolist()])
    return {"seed": seed, "check_nodes": check.tolist(), "solutions": solutions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ivp-seed", type=int,
                        help="print the ivp_sweep references of this seed")
    parser.add_argument("--well-depth", type=float,
                        help="print the double-well eigenvalues in "
                             "(-20, -0.1) for this depth")
    args = parser.parse_args(argv)
    if args.ivp_seed is not None:
        json.dump(ivp_references(args.ivp_seed), sys.stdout)
        sys.stdout.write("\n")
        return 0
    if args.well_depth is not None:
        for lam in well_eigenvalues(args.well_depth, -20.0, -0.1):
            print(f"{lam:.12f}")
        return 0
    path = inputs.HERE / "references.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(eig_references(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
