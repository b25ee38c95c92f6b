"""Workload inputs, generated from the workload seed.

This module needs numpy only. The measured process (``run.py``) and the
reference process (``references.py``) both build their inputs here, so the
package under test and the independent references see the same problems
without sharing any solver code.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: INI problems of ``eig_interval``, loaded through ``spps.problem``.
INTERVAL_PROBLEMS = ("dirichlet", "beam", "double_well")

#: Depth of the double well V(x) = H exp(-8 (x - pi)^2) on [0, 2 pi].
WELL_DEPTH = 50.0

# eig_disk: y''' + c y = lam y with periodic conditions on [0, 2 pi]
THIRD_ORDER_C = 0.3 + 0.2j
# eig_disk: y'' + c y = lam w y with Dirichlet conditions on [0, pi]
WEIGHTED_C = 0.5 + 0.25j
WEIGHTED_W = complex(np.exp(0.4j))

# ivp_sweep: one order-4 operator on [0, 1]
IVP_ORDER = 4
IVP_NODES = 1601
IVP_TRUNCATION = 40
IVP_BATCH = 64
IVP_LAMBDA_BOX = 60.0
IVP_HARMONICS = 1
#: Bound on the trigonometric coefficients of phi_1..phi_4.
IVP_AMPLITUDE = 0.5
#: Generator seed of the ivp_sweep operator (see ivp_inputs).
IVP_OPERATOR_SEED = 0
#: Every CHECK_STRIDE-th mesh node is compared against the reference.
IVP_CHECK_STRIDE = 16


def problem_path(name: str) -> Path:
    return HERE / "problems" / f"{name}.ini"


def well_potential(x):
    """V(x) of the double well; the equation is y'' - V y = lam y."""
    return WELL_DEPTH * np.exp(-8.0 * (x - math.pi) ** 2)


def trig(params: np.ndarray, x):
    """sum_q a_q cos(2 pi q x) + b_q sin(2 pi q x); rows of params: (a_q, b_q)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for q, (a, b) in enumerate(params):
        arg = 2 * math.pi * q * x
        out = out + a * np.cos(arg) + b * np.sin(arg)
    return out


def ivp_inputs(seed: int) -> dict:
    """Coefficients, weight, spectral parameters and initial data of ivp_sweep.

    phi_1..phi_4 are real trigonometric polynomials of degree IVP_HARMONICS
    with coefficients in [-IVP_AMPLITUDE, IVP_AMPLITUDE]; the weight is 1
    plus such a polynomial scaled to stay within [0.5, 1.5]. They are drawn
    from IVP_OPERATOR_SEED, not from ``seed``: the package's IVP error
    depends on the operator (1e-11 to 1e-8 relative over the first 25
    draws), so an operator per seed would make accuracy_digits differ
    between runs by more than any useful bound. ``seed`` draws the
    IVP_BATCH spectral parameters, with real and imaginary parts in
    [-IVP_LAMBDA_BOX, IVP_LAMBDA_BOX], and the complex initial data
    (y, y', y'', y''') at the basepoint x = 0.5.
    """
    rng = np.random.default_rng([0x5995, IVP_OPERATOR_SEED])
    shape = (IVP_HARMONICS + 1, 2)
    phi = [rng.uniform(-IVP_AMPLITUDE, IVP_AMPLITUDE, size=shape)
           for _ in range(IVP_ORDER)]
    weight = rng.uniform(-1.0, 1.0, size=shape)
    weight[0, 1] = 0.0  # sin(0) carries nothing
    weight *= 0.5 / np.sum(np.abs(weight))
    weight[0, 0] += 1.0
    rng = np.random.default_rng([0x5995, IVP_OPERATOR_SEED, seed])
    lam = (rng.uniform(-IVP_LAMBDA_BOX, IVP_LAMBDA_BOX, IVP_BATCH)
           + 1j * rng.uniform(-IVP_LAMBDA_BOX, IVP_LAMBDA_BOX, IVP_BATCH))
    init = (rng.standard_normal((IVP_BATCH, IVP_ORDER))
            + 1j * rng.standard_normal((IVP_BATCH, IVP_ORDER)))
    return {"phi": phi, "weight": weight, "lam": lam, "init": init}


def ivp_mesh_nodes() -> np.ndarray:
    """Mesh of ``ivp_sweep``: IVP_NODES uniform nodes on [0, 1]."""
    return np.linspace(0.0, 1.0, IVP_NODES)


def ivp_check_nodes() -> np.ndarray:
    """Indices of the mesh nodes compared against the reference."""
    return np.arange(0, IVP_NODES, IVP_CHECK_STRIDE)
