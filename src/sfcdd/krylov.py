"""Outer iterations: damped Richardson, preconditioned CG, flexible CG.

:func:`run` is the one iteration driver.  It checks the preconditioner,
records the initial residual, and then advances the method's step
recurrence, recording every iterate, until the stopping test holds or
``max_iters`` steps have run.  The test is either the energy-norm error
(requires the exact discrete solution) or the Euclidean residual norm
dropping below ``tolerance`` times its initial value.  Reports carry the
full per-iteration history, extremal-eigenvalue estimates where
computed, and a parameter echo; the harness writes them out.
Identical configuration and seed give bitwise identical histories.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np
import scipy.linalg as sla

METHODS = ("richardson", "pcg", "fcg")


class BreakdownError(RuntimeError):
    """Nonpositive CG curvature, or a non-finite residual or energy error."""


class DivergenceError(RuntimeError):
    """Richardson error grew by 10x over its initial value."""


@dataclass(frozen=True)
class SolverConfig:
    method: str = "pcg"  # one of METHODS
    tolerance: float = 1e-8
    tolerance_kind: str = "energy_error_reduction"  # or relative_residual
    max_iters: int = 20000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tolerance_kind not in ("energy_error_reduction", "relative_residual"):
            raise ValueError(f"unknown tolerance kind {self.tolerance_kind!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if isinstance(self.max_iters, bool) or not hasattr(
                type(self.max_iters), "__index__"):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
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
        w = apply_c(aq)
        alpha = float(w @ aq)  # (w, q) in the A-inner product
        alphas.append(alpha)
        w = w - alpha * q  # a copy: apply_c's output is not ours to update
        if q_prev is not None:
            w -= betas[-1] * q_prev
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
        w /= beta
        aw /= beta
        q_prev, q, aq = q, w, aw
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
            ae = self.b - r
            ae -= self.a_exact
            energy = float(np.sqrt(max(e @ ae, 0.0)))
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


def _richardson(A, b, apply_c, xi, x, r):
    """Damped preconditioned Richardson: x += xi * C^-1 r, r = b - A x."""
    while True:
        x += xi * apply_c(r)
        np.subtract(b, A @ x, out=r)
        yield


def _descend(A, x, r, p, numerator, k):
    """x += alpha p and r -= alpha A p with alpha = numerator / (p, A p)."""
    Ap = A @ p
    pAp = float(p @ Ap)
    if pAp <= 0.0:
        raise BreakdownError(f"nonpositive curvature at iteration {k}")
    alpha = numerator / pAp
    x += alpha * p
    r -= alpha * Ap
    return Ap, pAp


def _pcg(A, apply_c, x, r):
    """Preconditioned conjugate gradients."""
    z = apply_c(r)
    p = z.copy()
    rz = float(r @ z)
    for k in count(1):
        _descend(A, x, r, p, rz, k)
        yield
        z = apply_c(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new


def _fcg(A, apply_c, x, r):
    """Flexible CG: new directions are explicitly A-orthogonalized
    against all stored previous ones, so non-symmetric preconditioners
    are admissible."""
    directions: list[tuple[np.ndarray, np.ndarray, float]] = []
    for k in count(1):
        # a copy: apply_c may return r itself, which _descend updates
        p = np.array(apply_c(r))
        for pj, Apj, pApj in directions:
            p -= (float(p @ Apj) / pApj) * pj
        Ap, pAp = _descend(A, x, r, p, float(p @ r), k)
        directions.append((p, Ap, pAp))
        yield


def run(A, b, precond, cfg: SolverConfig, x0, exact=None) -> SolveReport:
    """Iterate ``cfg.method`` on A x = b from ``x0``.

    ``precond.apply`` applies C^-1 (the identity when ``precond`` is
    None).  Richardson and PCG refuse a preconditioner whose
    ``symmetric`` attribute is false.  Richardson damps with
    xi = 2/(lambda_min + lambda_max), from the extremal eigenvalues of
    C^-1 A estimated first, and raises :class:`DivergenceError` once its
    error has grown tenfold.
    """
    t0 = time.perf_counter()
    if cfg.method != "fcg" and not getattr(precond, "symmetric", True):
        raise ValueError(
            f"{cfg.method} needs a symmetric preconditioner; use fcg")
    apply_c = precond.apply if precond is not None else np.copy
    report = SolveReport(cfg.method, 0, False, [], [])
    if cfg.method == "richardson":
        # before the iterate's vectors exist, so they add nothing to the
        # estimate's peak memory
        lam = estimate_extremal_eigs(A, apply_c, seed=cfg.seed)
        report.lambda_min, report.lambda_max = lam
        report.damping = 2.0 / (lam[0] + lam[1])
    tracker = _Tracker(A, b, cfg, exact)
    x = np.array(x0, dtype=np.float64)
    r = b - A @ x
    if cfg.method == "pcg":
        steps = _pcg(A, apply_c, x, r)
    elif cfg.method == "fcg":
        steps = _fcg(A, apply_c, x, r)
    else:
        steps = _richardson(A, b, apply_c, report.damping, x, r)
    report.converged = tracker.record(x, r)
    if not report.converged:
        for k, _ in enumerate(islice(steps, cfg.max_iters), 1):
            report.iterations = k
            if tracker.record(x, r):
                report.converged = True
                break
            if cfg.method == "richardson" and tracker.diverged():
                raise DivergenceError(f"error grew 10x after {k} iterations")
    report.wall_time = time.perf_counter() - t0
    report.solution = x
    report.energy_history = tracker.energy_history
    report.residual_history = tracker.residual_history
    return report
