"""Stochastic oracle: simulate the radial diffusion and average test functions.

The generator is the radial operator

  L = d^2/dr^2 + (7 coth r + 7 tanh r) d/dr
      + tanh^2(r) (d^2/deta^2 + 6 cot(eta) d/deta)

so the coordinate SDE reads

  dr   = (7 coth r + 7 tanh r) dt + sqrt(2) dW1
  deta = 6 tanh^2(r) cot(eta) dt + sqrt(2) tanh(r) dW2

(the diffusion coefficient is sqrt(2) because the second-order part of L has
unit coefficients rather than 1/2).  Plain Euler steps are useless here: at
the near-origin start the drift 7 coth(r) ~ 7/r makes the first increment
7 coth(1e-3) dt ~ 0.7, an O(1) overshoot of the true ~sqrt(14 dt) escape.
Instead each step splits drift and noise, applying the drift through its
exact flow -- both coordinates have closed-form flows:

  cosh(2 r_tau)  = cosh(2 r_0) exp(28 tau)
  cos(eta_tau)   = cos(eta_0) exp(-6 tanh^2(r) tau)

in Strang order (half drift, noise, half drift).  The scheme stays weak
order one and is well behaved at the coordinate singularities; the
remaining reflection thresholds are a safety net for noise overshoots.

Every path owns an independent counter-based random stream keyed by
(seed, path index), so results do not depend on execution order or any
worker scheduling, and reductions run in fixed path-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

_CHUNK = 8192
_WINDOW = 1000
_EPS = 1e-3  # every path starts at r = eta = _EPS; r reflects at _EPS, eta at _EPS, pi - _EPS


@dataclass(frozen=True)
class SdeConfig:
    n_paths: int = 100_000
    dt: float = 1e-4
    seed: int = 0
    t_end: float = 1.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if not 0.0 < self.dt <= 1e-3:
            raise ValueError("dt must lie in (0, 1e-3]")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")


@dataclass(frozen=True)
class SampleSet:
    """States of all paths at one time, in path-index order."""

    time: float
    r: np.ndarray
    eta: np.ndarray


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _arccosh_exp(y):
    """arccosh(exp(y)) for y >= 0 without overflowing exp."""
    big = y > 30.0
    safe = np.where(big, 1.0, y)
    small_val = np.arccosh(np.exp(safe))
    return np.where(big, y + math.log(2.0), small_val)


def _drift_flow(r, eta, tau):
    """Exact flow of the drift vector field over time tau."""
    r_new = 0.5 * _arccosh_exp(_log_cosh(2.0 * r) + 28.0 * tau)
    decay = np.exp(-6.0 * np.tanh(r_new) ** 2 * tau)
    eta_new = np.arccos(np.clip(np.cos(eta) * decay, -1.0, 1.0))
    return r_new, eta_new


def _reflect(x, lo, hi):
    x = np.where(x < lo, 2.0 * lo - x, x)
    return np.where(x > hi, 2.0 * hi - x, x)


def strang_step(r, eta, xi_r, xi_eta, dt):
    """One splitting step driven by the given standard-normal increments."""
    half = 0.5 * dt
    root = math.sqrt(2.0 * dt)
    r, eta = _drift_flow(r, eta, half)
    coef = np.tanh(r)
    r = r + root * xi_r
    eta = eta + root * coef * xi_eta
    r, eta = _drift_flow(np.abs(r), np.abs(eta), half)
    r = _reflect(r, _EPS, np.inf)
    eta = _reflect(eta, _EPS, math.pi - _EPS)
    return r, eta


def simulate_paths(cfg: SdeConfig, snapshot_times: tuple = ()) -> list[SampleSet]:
    """Run all paths to t_end; returns samples at each snapshot and at t_end.

    Snapshot times are rounded to whole steps.  Identical configuration gives
    bitwise identical output.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    wanted = {min(n_steps, max(1, int(round(s / cfg.dt)))) for s in snapshot_times}
    steps_wanted = sorted(wanted | {n_steps})

    r_out = {k: np.empty(cfg.n_paths) for k in steps_wanted}
    eta_out = {k: np.empty(cfg.n_paths) for k in steps_wanted}

    for start in range(0, cfg.n_paths, _CHUNK):
        stop = min(start + _CHUNK, cfg.n_paths)
        gens = [Generator(Philox(SeedSequence(entropy=(cfg.seed, p))))
                for p in range(start, stop)]
        c = stop - start
        r = np.full(c, _EPS)
        eta = np.full(c, _EPS)
        done = 0
        while done < n_steps:
            window = min(_WINDOW, n_steps - done)
            noise = np.empty((c, window, 2))
            for i, g in enumerate(gens):
                noise[i] = g.standard_normal((window, 2))
            for k in range(window):
                r, eta = strang_step(r, eta, noise[:, k, 0], noise[:, k, 1], cfg.dt)
                done += 1
                if done in r_out:
                    r_out[done][start:stop] = r
                    eta_out[done][start:stop] = eta

    return [SampleSet(time=k * cfg.dt, r=r_out[k], eta=eta_out[k]) for k in steps_wanted]


# The acceptance oracle triple: fiber mixing, a growing radial moment, and a
# bounded radial location statistic.  The third entry of each tuple is the
# exponential growth rate passed to the quadrature side.
MC_TEST_FUNCTIONS = (
    ("cos_eta", lambda r, eta: np.cos(eta), 0.0),
    ("cosh_half_r", lambda r, eta: np.cosh(r / 2.0), 0.5),
    ("sech_half_r", lambda r, eta: 1.0 / np.cosh(r / 2.0), 0.0),
)


def estimate_expectation(f, samples: SampleSet):
    """Sample mean and standard error of f(r, eta) over the samples; f must accept arrays.

    Fewer than two samples have no standard error, and raise ValueError.
    """
    vals = np.asarray(f(samples.r, samples.eta), dtype=float)
    if vals.size < 2:
        raise ValueError(f"{vals.size} sample(s) cannot estimate a standard error; need 2")
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))
