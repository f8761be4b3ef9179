"""Outer iterations: damped Richardson, preconditioned CG, flexible CG.

All solvers share the stopping logic: either the energy-norm error
(requires the exact discrete solution) or the Euclidean residual norm
must drop below ``tolerance`` times its initial value.  Reports carry
the full per-iteration history, extremal-eigenvalue estimates where
computed, and a parameter echo, and serialize to CSV/JSON-friendly
records.  Identical configuration and seed give bitwise identical
histories.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla


class BreakdownError(RuntimeError):
    """Nonpositive CG curvature, or a non-finite residual or energy error."""


class DivergenceError(RuntimeError):
    """Richardson error grew by 10x over its initial value."""


@dataclass(frozen=True)
class SolverConfig:
    method: str = "pcg"  # richardson | pcg | fcg
    damping: float | str = "optimal"  # richardson only
    tolerance: float = 1e-8
    tolerance_kind: str = "energy_error_reduction"  # or relative_residual
    max_iters: int = 20000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.method not in ("richardson", "pcg", "fcg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tolerance_kind not in ("energy_error_reduction", "relative_residual"):
            raise ValueError(f"unknown tolerance kind {self.tolerance_kind!r}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")


@dataclass
class SolveReport:
    method: str
    iterations: int
    converged: bool
    energy_history: list
    residual_history: list
    lambda_min: float | None = None
    lambda_max: float | None = None
    damping: float | None = None
    wall_time: float = 0.0
    solution: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def iteration_rows(self):
        rows = []
        for k, res in enumerate(self.residual_history):
            energy = self.energy_history[k] if self.energy_history else ""
            rows.append((k, energy, res))
        return rows

    def write_iterations_csv(self, fh) -> None:
        fh.write("k,energy_error,residual\r\n")
        for k, energy, res in self.iteration_rows():
            e = repr(energy) if energy != "" else ""
            fh.write(f"{k},{e},{repr(res)}\r\n")

    def summary(self) -> dict:
        out = {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "damping": self.damping,
            "wall_time": self.wall_time,
        }
        out.update(self.params)
        return out


def initial_iterate(n: int, seed: int, A) -> np.ndarray:
    """Uniform random entries on [-1, 1], rescaled to unit energy norm.

    Drawn from numpy's seeded PCG64 generator, so runs are reproducible
    bit for bit for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=n)
    return x / np.sqrt(x @ (A @ x))


# the Lanczos estimate stops once both extremal Ritz values have moved by
# less than this (relative) for five consecutive steps, after at least
# EIG_MIN_ITERS steps
EIG_STAGNATION_TOL = 2e-5
EIG_MIN_ITERS = 40


def estimate_extremal_eigs(A, apply_c, *, seed: int):
    """Extremal eigenvalues of the preconditioned operator C^-1 A.

    ``apply_c`` applies C^-1, which must be symmetric, so that C^-1 A is
    self-adjoint in the A-inner product.  The three-term Lanczos
    recurrence in that inner product runs for at most min(200, n) steps
    with n = A.shape[0], stopping early once both extremal Ritz values
    stagnate.  Extremal Ritz values converge without
    reorthogonalization (Paige 1980), so only the last two Lanczos
    vectors are kept.  On breakdown the Ritz values found so far are
    returned.
    """
    n = A.shape[0]
    rng = np.random.default_rng((seed, 0xE16))
    q = rng.standard_normal(n)
    aq = A @ q
    scale = np.sqrt(float(q @ aq))
    q, aq = q / scale, aq / scale
    q_prev = None
    alphas: list[float] = []
    betas: list[float] = []
    prev = None
    stable = 0
    for k in range(min(200, n)):
        w = apply_c(A @ q)
        alpha = float(w @ aq)  # (w, q) in the A-inner product
        alphas.append(alpha)
        w = w - alpha * q
        if q_prev is not None:
            w = w - betas[-1] * q_prev
        lam = sla.eigvalsh_tridiagonal(alphas, betas)
        lam_lo, lam_hi = float(lam[0]), float(lam[-1])
        if prev is not None:
            d_lo = abs(lam_lo - prev[0]) / max(abs(lam_lo), 1e-30)
            d_hi = abs(lam_hi - prev[1]) / max(abs(lam_hi), 1e-30)
            stable = stable + 1 if max(d_lo, d_hi) < EIG_STAGNATION_TOL else 0
        prev = (lam_lo, lam_hi)
        if k + 1 >= EIG_MIN_ITERS and stable >= 5:
            break
        aw = A @ w
        beta = np.sqrt(max(float(w @ aw), 0.0))
        if beta <= 1e-14 * max(abs(alpha), 1.0):
            break
        betas.append(beta)
        q_prev, q, aq = q, w / beta, aw / beta
    return lam_lo, lam_hi


class _Tracker:
    """Per-iteration histories and the configured stopping test."""

    def __init__(self, A, b, cfg: SolverConfig, exact):
        self.A = A
        self.b = b
        self.cfg = cfg
        self.exact = exact
        if cfg.tolerance_kind == "energy_error_reduction" and exact is None:
            raise ValueError("energy stopping needs the exact solution")
        self.a_exact = A @ exact if exact is not None else None
        self.energy_history: list[float] = []
        self.residual_history: list[float] = []
        self._baseline = None

    def record(self, x, r) -> bool:
        res = float(np.linalg.norm(r))
        self.residual_history.append(res)
        if self.exact is not None:
            e = x - self.exact
            # A e = (b - r) - A x_exact, so no extra matvec is needed
            energy = float(np.sqrt(max(e @ (self.b - r - self.a_exact), 0.0)))
            self.energy_history.append(energy)
        if not all(math.isfinite(v) for v in [res, *self.energy_history[-1:]]):
            raise BreakdownError(
                f"non-finite residual or energy error at iteration "
                f"{len(self.residual_history) - 1}")
        if self.cfg.tolerance_kind == "energy_error_reduction":
            metric = self.energy_history[-1]
        else:
            metric = res
        if self._baseline is None:
            self._baseline = metric
        return metric <= self.cfg.tolerance * self._baseline

    def diverged(self) -> bool:
        if self._baseline is None or self._baseline == 0.0:
            return False
        kind = self.cfg.tolerance_kind
        hist = (self.energy_history if kind == "energy_error_reduction"
                else self.residual_history)
        return hist[-1] > 10.0 * self._baseline


def _finish(report: SolveReport, t0: float, x, t) -> SolveReport:
    report.wall_time = time.perf_counter() - t0
    report.solution = x
    report.energy_history = t.energy_history
    report.residual_history = t.residual_history
    return report


def richardson(A, b, precond, cfg: SolverConfig, x0, exact=None) -> SolveReport:
    """Damped preconditioned Richardson iteration x += xi * C^-1 (b - A x).

    With ``damping="optimal"`` the extremal eigenvalues of C^-1 A are
    estimated first and xi = 2/(lambda_min + lambda_max).
    """
    t0 = time.perf_counter()
    apply_c = precond.apply if precond is not None else (lambda v: v.copy())
    lam = (None, None)
    if cfg.damping == "optimal":
        if precond is not None and not getattr(precond, "symmetric", True):
            raise ValueError("optimal damping requires a symmetric preconditioner")
        lam = estimate_extremal_eigs(A, apply_c, seed=cfg.seed)
        xi = 2.0 / (lam[0] + lam[1])
    else:
        xi = float(cfg.damping)
    tracker = _Tracker(A, b, cfg, exact)
    x = np.array(x0, dtype=np.float64)
    report = SolveReport("richardson", 0, False, [], [],
                         lambda_min=lam[0], lambda_max=lam[1], damping=xi)
    for k in range(cfg.max_iters + 1):
        r = b - A @ x
        if tracker.record(x, r):
            report.iterations, report.converged = k, True
            break
        if tracker.diverged():
            raise DivergenceError(f"error grew 10x after {k} iterations")
        if k == cfg.max_iters:
            report.iterations = k
            break
        x += xi * apply_c(r)
    return _finish(report, t0, x, tracker)


def pcg(A, b, precond, cfg: SolverConfig, x0, exact=None) -> SolveReport:
    """Preconditioned conjugate gradients; refuses non-symmetric preconditioners."""
    t0 = time.perf_counter()
    if precond is not None and not getattr(precond, "symmetric", True):
        raise ValueError("preconditioner is not symmetric; use fcg")
    apply_c = precond.apply if precond is not None else (lambda v: v.copy())
    tracker = _Tracker(A, b, cfg, exact)
    x = np.array(x0, dtype=np.float64)
    r = b - A @ x
    report = SolveReport("pcg", 0, False, [], [])
    if tracker.record(x, r):
        report.converged = True
        return _finish(report, t0, x, tracker)
    z = apply_c(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, cfg.max_iters + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise BreakdownError(f"nonpositive curvature at iteration {k}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        report.iterations = k
        if tracker.record(x, r):
            report.converged = True
            break
        z = apply_c(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return _finish(report, t0, x, tracker)


def fcg(A, b, precond, cfg: SolverConfig, x0, exact=None) -> SolveReport:
    """Flexible CG: new directions are explicitly A-orthogonalized
    against all stored previous ones, so non-symmetric preconditioners
    are admissible."""
    t0 = time.perf_counter()
    apply_c = precond.apply if precond is not None else (lambda v: v.copy())
    tracker = _Tracker(A, b, cfg, exact)
    x = np.array(x0, dtype=np.float64)
    r = b - A @ x
    report = SolveReport("fcg", 0, False, [], [])
    if tracker.record(x, r):
        report.converged = True
        return _finish(report, t0, x, tracker)
    directions: list[tuple[np.ndarray, np.ndarray, float]] = []
    for k in range(1, cfg.max_iters + 1):
        p = apply_c(r)
        for pj, Apj, pApj in directions:
            p = p - (float(p @ Apj) / pApj) * pj
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise BreakdownError(f"nonpositive curvature at iteration {k}")
        alpha = float(p @ r) / pAp
        x += alpha * p
        r -= alpha * Ap
        directions.append((p, Ap, pAp))
        report.iterations = k
        if tracker.record(x, r):
            report.converged = True
            break
    return _finish(report, t0, x, tracker)


_METHODS = {"richardson": richardson, "pcg": pcg, "fcg": fcg}


def run(A, b, precond, cfg: SolverConfig, x0, exact=None) -> SolveReport:
    """Dispatch on ``cfg.method``."""
    return _METHODS[cfg.method](A, b, precond, cfg, x0, exact=exact)
