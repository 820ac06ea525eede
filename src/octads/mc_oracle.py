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
  cos(eta_tau)   = cos(eta_0) exp(6 tau) (cosh r_0 / cosh r_tau)^(6/7)

(the eta flow integrates d(cos eta)/dt = -6 tanh^2(r) cos(eta) along the r
flow).  The r flow is applied as s_tau = s_0 + g with s = sinh^2(r) and
g = (e^(28 tau) - 1)(s_0 + 1/2), and above r = 20, where cosh(2r) = e^(2r)/2
to double precision, as the shift r_tau = r_0 + 14 tau; the eta factor is
exp(6 tau - (3/7) log1p(g / (1 + s_0))).  That factor is at most 1 (AM-GM), so
the flow keeps cos(eta) in [-1, 1] without a clamp.  Being exact, the drift flow
composes: D(a) D(b) = D(a + b).  So the Strang chain of n steps (half drift,
noise, half drift) is run fused, D(dt/2) [N D(dt)]^(n-1) N D(dt/2), with N
the noise kick: one opening half drift, then per step the noise and one full
drift, and at each wanted step a closing half drift on a copy of the chain.
The scheme stays weak order one and is well behaved at the coordinate singularities.  The
flow is even in r and in eta, and arccos folds eta at pi alike, so the kick folds neither at
0; and a drift of tau leaves r >= arcsinh(sqrt(expm1(28 tau) / 2)), above 1e-3 for tau >=
7.15e-8, so r has no boundary (below dt = 1.43e-7, which no caller uses, r may stay under it).

The noise of a step is a pair of random signs per path, xi = +-1 with equal
odds, in place of a pair of standard normals: the simplified weak scheme of
Kloeden and Platen (Numerical Solution of SDEs, sec. 14.1).  The signs match
the first three moments of a normal (0, 1, 0), which is all a weak order one
scheme asks of its increments, and only expectations are read from the paths.
A sign is one random bit, where a normal is a ziggurat draw.

The chain runs in float32.  The start state and the noise buffer are float32, and the step
functions keep them so, since their constants are Python floats, which numpy casts to the
array's type; each snapshot becomes float64 when the chunks are joined.  Each step function
writes into arrays of its own, leaving its inputs as they were, and runs the cutoff, the shift
and each reflection only when some path needs it: for every other path they are the identity.
One 8192-path chunk takes 12-20 ns per path-step in float32 against 29-37 ns in float64, where
numpy's cos is not vectorized, about 1 ns of either being the sign noise (numpy 2.4.6, 2 shared
vCPUs).  Over 500 steps rounding moves a path by about 3e-6 relative in r and 1.4e-5 in eta,
and at 100000 paths the means of the test functions by under 0.005 standard errors.  Near the
poles float32 arccos has no value between 0 and 3.5e-4, nor between pi - 3.5e-4 and pi, where
1 - |cos eta| is under one ulp; eta reflects at _EPS = 1e-3 from each pole, where its values
lie 6.3e-5 apart.

The paths run in chunks of 8192.  Each chunk owns one counter-based (Philox)
random stream keyed by (seed, chunk index), and each step takes 256 raw 64-bit
words from it, 128 per noise row: column j of row i is bit j % 64 of word
128 i + j // 64, unpacked in little-endian byte and bit order on every
platform, and path start + j reads column j.  The words are always drawn at
full width, _BLOCK steps' words in one call, so a path's noise depends only on
(seed, path index) and not on how many paths run, but a chunk of c paths maps
only the first ceil(c / 8) bytes of each row, each through a table of its eight
signs, into one reused (_BLOCK, 2, 8 ceil(c / 8)) float32 buffer of at most 512 KiB.
numpy.random (6 MiB resident) is imported by the first chunk a process runs, or by the caller
just before its pool forks, not with the module, so a process that never simulates does not
load it and a forked worker inherits it.
With more than one chunk and usable CPU, the chunks run in a pool of min(chunks, usable CPUs)
processes, joined in path-index order; the output is bitwise identical for any worker count and
start method.  The pool forks on Linux, so workers inherit the imported package and need no
__main__ guard, and spawns elsewhere (fork is unsafe on macOS, absent on Windows).  Fork from no
process whose other threads may hold locks; Python >= 3.12 may warn of numpy's BLAS thread.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .special_fn import _MAX, _TINY, _integer, _real, _values

_CHUNK = 8192
_R_SHIFT = 20.0  # above this r the drift flow of r is the shift r + 14 tau
_EPS = 1e-3  # paths start at r = eta = _EPS; eta reflects at _EPS, pi - _EPS; r has no boundary
_BLOCK = 8  # steps of noise drawn and unpacked at a time
# _SIGNS[b] is byte b as eight signs, its bits in little order: +1 where set, -1 where not
_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                             bitorder="little").astype(np.float32) - 1.0


@dataclass(frozen=True)
class SdeConfig:
    n_paths: int = 100_000
    dt: float = 1e-4
    seed: int = 0
    t_end: float = 1.0

    def __post_init__(self):
        """Stores n_paths and seed as ints, dt in (0, 1e-3] and t_end in (0, inf) as floats."""
        for name, check, *bounds in (("n_paths", _integer, 1), ("seed", _integer, 0),
                                     ("dt", _real, _TINY, 1e-3), ("t_end", _real, _TINY, _MAX)):
            object.__setattr__(self, name, check(name, getattr(self, name), *bounds))
        if not 0.5 < self.t_end / self.dt < math.inf:
            raise ValueError(f"t_end = {self.t_end} must be finite and span at least one, and "
                             f"finitely many, steps dt = {self.dt}")


@dataclass(frozen=True)
class SampleSet:
    """States of all paths at one time, in path-index order."""

    time: float
    r: np.ndarray
    eta: np.ndarray


def _drift_flow(r, eta, tau):
    """Exact flow of the drift vector field over time tau.

    cos eta needs no clamp.  Its factor decay is at most 1: g / (1 + s) >= (e^(28 tau) - 1) / 2,
    and log1p of that is at least 14 tau by AM-GM on 1 and e^(28 tau).  In floats that gap, 42
    tau^2 at s = 0 and more above, exceeds the exponent's rounding for tau >= 3e-8 in float32
    (1e-16 in float64), and below it exp returns 1.  cos eta times decay then rounds into [-1, 1].
    """
    s, g, r_new, eta_new = (np.empty_like(r) for _ in range(4))
    shifted = r.max() > _R_SHIFT  # else the cutoff and the shift are the identity
    np.sinh(np.minimum(r, _R_SHIFT, out=s) if shifted else r, out=s)
    np.square(s, out=s)
    np.multiply(np.add(s, 0.5, out=g), math.expm1(28.0 * tau), out=g)  # sinh^2 r' = s + g
    np.arcsinh(np.sqrt(np.add(s, g, out=r_new), out=r_new), out=r_new)
    if shifted:
        np.copyto(r_new, r + 14.0 * tau, where=r > _R_SHIFT)
    # cos eta scales by e^(6 tau) (cosh r / cosh r')^(6/7), and (cosh r' / cosh r)^2 = 1 + g/(1 + s)
    decay = np.log1p(np.divide(g, np.add(s, 1.0, out=s), out=s), out=s)
    np.exp(np.subtract(6.0 * tau, np.multiply(decay, 3.0 / 7.0, out=s), out=s), out=s)
    np.multiply(np.cos(eta, out=eta_new), decay, out=eta_new)
    return r_new, np.arccos(eta_new, out=eta_new)


def _kick(r, eta, xi_r, xi_eta, dt):
    """The noise of one step, unfolded: the drift flow after it is even in r and in eta."""
    root = math.sqrt(2.0 * dt)
    r_new, eta_new = np.empty_like(r), np.empty_like(eta)
    np.add(r, np.multiply(xi_r, root, out=r_new), out=r_new)
    np.multiply(np.multiply(np.tanh(r, out=eta_new), root, out=eta_new), xi_eta, out=eta_new)
    return r_new, np.add(eta, eta_new, out=eta_new)


def _drift(r, eta, tau):
    """The drift flow over tau, then eta's reflections at _EPS and pi - _EPS."""
    r, eta = _drift_flow(r, eta, tau)  # new arrays, eta reflected in place where it must be
    if eta.min() < _EPS:
        np.copyto(eta, 2.0 * _EPS - eta, where=eta < _EPS)
    if eta.max() > math.pi - _EPS:
        np.copyto(eta, 2.0 * (math.pi - _EPS) - eta, where=eta > math.pi - _EPS)
    return r, eta


def strang_step(r, eta, xi_r, xi_eta, dt):
    """One fused splitting step on the half-shifted state: the noise, then the full drift."""
    return _drift(*_kick(r, eta, xi_r, xi_eta, dt), dt)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _simulate_chunk(cfg: SdeConfig, start: int, stop: int, steps_wanted: list[int]):
    """Paths start..stop-1 run to the last wanted step; their (r, eta) at each wanted step."""
    from numpy.random import Philox, SeedSequence  # 6 MiB that only a simulating process pays

    bits = Philox(SeedSequence(entropy=(cfg.seed, start // _CHUNK)))
    c = stop - start
    width = (c + 7) // 8  # the bytes of each noise row that the chunk reads
    noise = np.empty((_BLOCK, 2, width, 8), np.float32)  # _BLOCK steps of noise, refilled in place
    r, eta = _drift_flow(np.full(c, _EPS, np.float32), np.full(c, _EPS, np.float32),
                         0.5 * cfg.dt)  # opening half drift
    out = []
    for step in range(1, steps_wanted[-1] + 1):
        j = (step - 1) % _BLOCK
        if j == 0:  # the next steps' words, 256 a step, in the stream's order
            k = min(_BLOCK, steps_wanted[-1] + 1 - step)
            words = bits.random_raw(256 * k).astype("<u8", copy=False).view(np.uint8)
            np.take(_SIGNS, words.reshape(k, 2, _CHUNK // 8)[:, :, :width], axis=0,
                    out=noise[:k], mode="clip")  # every byte is in range; "raise" buffers
        xi_r, xi_eta = noise[j].reshape(2, 8 * width)[:, :c]
        if step == steps_wanted[len(out)]:  # the closing half drift, on a copy of the chain
            out.append(_drift(*_kick(r, eta, xi_r, xi_eta, cfg.dt), 0.5 * cfg.dt))
        r, eta = strang_step(r, eta, xi_r, xi_eta, cfg.dt)
    return out


def simulate_paths(cfg: SdeConfig, snapshot_times: tuple = ()) -> list[SampleSet]:
    """Run all paths to t_end; returns samples at each snapshot and at t_end.

    Snapshot times, in [0, t_end], are rounded to whole steps, and must round to a
    step after 0.  Identical configuration gives bitwise identical output.
    """
    n_steps = round(cfg.t_end / cfg.dt)
    wanted = {n_steps}
    for s in snapshot_times:
        k = round(_real("snapshot time", s, 0.0, cfg.t_end) / cfg.dt)
        if k < 1:
            raise ValueError(f"snapshot time {s} does not round to a step of (0, {cfg.t_end}]")
        wanted.add(k)
    steps_wanted = sorted(wanted)

    chunks = [(start, min(start + _CHUNK, cfg.n_paths)) for start in range(0, cfg.n_paths, _CHUNK)]
    workers = min(len(chunks), _usable_cpus())
    if workers == 1:
        parts = [_simulate_chunk(cfg, start, stop, steps_wanted) for start, stop in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import get_context
        from numpy.random import Philox, SeedSequence  # noqa: F401 (forked workers share it)

        starts, stops = zip(*chunks)
        try:
            context = get_context("fork" if sys.platform == "linux" else "spawn")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                parts = list(pool.map(_simulate_chunk, [cfg] * len(chunks), starts, stops,
                                      [steps_wanted] * len(chunks)))
        except BrokenProcessPool as exc:
            raise RuntimeError(
                "a simulate_paths worker process died; a script that runs more than "
                f"{_CHUNK} paths off Linux must guard its top level with "
                "'if __name__ == \"__main__\":', because each worker imports it") from exc

    return [SampleSet(time=k * cfg.dt,
                      r=np.concatenate([part[j][0] for part in parts], dtype=np.float64),
                      eta=np.concatenate([part[j][1] for part in parts], dtype=np.float64))
            for j, k in enumerate(steps_wanted)]


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

    f's values (bool passes) broadcast to the samples' shape, so a constant has standard error 0;
    other dtypes, NaN, +-inf, other shapes and fewer than two samples raise ValueError.
    """
    vals = _values("f", f(samples.r, samples.eta), f"on the samples at t = {samples.time}")
    vals = np.broadcast_to(vals, samples.r.shape)
    if vals.size < 2:
        raise ValueError(f"{vals.size} sample(s) cannot estimate a standard error; need 2")
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))
