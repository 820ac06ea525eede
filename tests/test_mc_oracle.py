import concurrent.futures
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox, SeedSequence

from octads import mc_oracle
from octads.mc_oracle import (
    MC_TEST_FUNCTIONS,
    SdeConfig,
    estimate_expectation,
    simulate_paths,
    strang_step,
)
from octads.subelliptic_kernel import total_mass, weighted_integral

ROOT = Path(__file__).resolve().parents[1]


def _replayed_signs(bits):
    """The next step of a chunk's sign noise, (2, _CHUNK), replayed from its Philox stream."""
    words = bits.random_raw(2 * mc_oracle._CHUNK // 64)
    ones = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return 2.0 * ones.reshape(2, mc_oracle._CHUNK) - 1.0


def _fused_chain(noise, h, dtype=np.float64):
    """The chain as simulate_paths runs it, on arrays of dtype, from the steps of noise, each a
    (2, n) array: the opening half drift, fused steps, and the closing half drift after the
    last noise.  The final (r, eta), as float64."""
    noise = iter(noise)
    xi = next(noise).astype(dtype)
    r, eta = mc_oracle._drift_flow(np.full(xi.shape[1], mc_oracle._EPS, dtype),
                                   np.full(xi.shape[1], mc_oracle._EPS, dtype), h / 2.0)
    for following in noise:
        r, eta = strang_step(r, eta, *xi, h)
        xi = following.astype(dtype)
    r, eta = mc_oracle._drift(*mc_oracle._kick(r, eta, *xi, h), h / 2.0)
    return r.astype(np.float64), eta.astype(np.float64)


def _allocating_drift_flow(r, eta, tau):
    """_drift_flow as one array per ufunc, with the cutoff and the shift applied to every path."""
    s = np.sinh(np.minimum(r, mc_oracle._R_SHIFT)) ** 2
    g = math.expm1(28.0 * tau) * (s + 0.5)
    r_new = np.where(r > mc_oracle._R_SHIFT, r + 14.0 * tau, np.arcsinh(np.sqrt(s + g)))
    decay = np.exp(6.0 * tau - (3.0 / 7.0) * np.log1p(g / (1.0 + s)))
    return r_new, np.arccos(np.clip(np.cos(eta) * decay, -1.0, 1.0))


def _allocating_kick(r, eta, xi_r, xi_eta, dt):
    """_kick as one array per ufunc."""
    root = math.sqrt(2.0 * dt)
    return r + root * xi_r, eta + root * np.tanh(r) * xi_eta


def _allocating_drift(r, eta, tau):
    """_drift with both reflections applied whether or not a path needs them."""
    r, eta = _allocating_drift_flow(r, eta, tau)
    eps = mc_oracle._EPS
    np.copyto(eta, 2.0 * eps - eta, where=eta < eps)
    np.copyto(eta, 2.0 * (math.pi - eps) - eta, where=eta > math.pi - eps)
    return r, eta


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SdeConfig(n_paths=0)
        with pytest.raises(ValueError):
            SdeConfig(dt=1e-2)
        with pytest.raises(ValueError):
            SdeConfig(t_end=-1.0)

    @pytest.mark.parametrize("t_end, dt", [(math.nan, 1e-4), (math.inf, 1e-4), (4e-5, 1e-4),
                                           (1.0, 5e-324), (True, 1e-3), (np.True_, 1e-3),
                                           (np.complex128(1), 1e-3), ("1", 1e-3), (None, 1e-3),
                                           (np.array([1.0]), 1e-3)])
    def test_t_end_must_be_finite_and_a_step(self, t_end, dt):
        # NaN failed in simulate_paths converting NaN to an integer, inf and 1 / 5e-324
        # overflowed, 4e-5 rounds to no step at all, True, an int subclass, ran to t = 1, and
        # np.complex128(1) and np.array([1.0]) were accepted
        with pytest.raises(ValueError, match="t_end"):
            SdeConfig(t_end=t_end, dt=dt)

    @pytest.mark.parametrize("n_paths", [2.5, True, 4j, "4", None, np.array([4])])
    def test_path_count_must_be_an_integer(self, n_paths):
        # True, an int subclass, simulated one path
        with pytest.raises(ValueError, match="n_paths"):
            SdeConfig(n_paths=n_paths)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, 1j, "1", None, np.array([1])])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # -1 failed in simulate_paths with numpy's "expected non-negative integer", 1.5 with a
        # TypeError, and True and False ran as seeds 1 and 0
        with pytest.raises(ValueError, match="seed"):
            SdeConfig(seed=seed)

    @pytest.mark.parametrize("snapshots", [(0.5, -1.0), (0.5,), (-1.0,), (0.0,), (math.nan,)])
    def test_snapshot_outside_the_run_is_refused(self, snapshots):
        # (0.5, -1.0) used to be clamped to the times (0.0001, 0.001)
        cfg = SdeConfig(n_paths=4, t_end=0.001)
        with pytest.raises(ValueError, match="snapshot time"):
            simulate_paths(cfg, snapshot_times=snapshots)

    @pytest.mark.parametrize("snapshot", [True, np.True_, 1j, "1", None, np.array([0.5])])
    def test_bool_snapshot_is_refused(self, snapshot):
        # (True,) took a snapshot at t = 1.0
        cfg = SdeConfig(n_paths=4, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError, match=re.escape("snapshot time must be a real number in "
                                                       "[0, 1]")):
            simulate_paths(cfg, snapshot_times=(snapshot,))


_FLOW_RS = [1e-3, 0.1, 1.0, 10.0, mc_oracle._R_SHIFT - 0.1, mc_oracle._R_SHIFT + 0.1, 100.0,
            354.0, 356.0, 700.0, 1e4]  # straddling the shift cutoff and the overflow of sinh^2 r


def _exact_flow(mpmath, r, eta, tau):
    """The drift flow in closed form: cosh 2r' = e^(28 tau) cosh 2r, and cos eta' = cos eta
    e^(6 tau) (cosh r / cosh r')^(6/7), the integral of d(cos eta)/dt = -6 tanh^2 r cos eta."""
    r, eta, tau = mpmath.mpf(r), mpmath.mpf(eta), mpmath.mpf(tau)
    r_new = mpmath.acosh(mpmath.exp(28 * tau) * mpmath.cosh(2 * r)) / 2
    decay = mpmath.exp(6 * tau) * (mpmath.cosh(r) / mpmath.cosh(r_new)) ** (mpmath.mpf(6) / 7)
    return r_new, mpmath.acos(mpmath.cos(eta) * decay)


class TestDriftFlow:
    def test_closed_form_solves_the_drift_ode(self):
        # dr/dt = 7 coth r + 7 tanh r, deta/dt = 6 tanh^2 r cot eta, integrated by mpmath
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for r, eta, tau in [(1.0, 3.0, 5e-5), (2.0, 1.0, 5e-4)]:
                ode = mpmath.odefun(lambda t, y: [7 * mpmath.coth(y[0]) + 7 * mpmath.tanh(y[0]),
                                                  6 * mpmath.tanh(y[0]) ** 2 * mpmath.cot(y[1])],
                                    0, [mpmath.mpf(r), mpmath.mpf(eta)])
                for got, want in zip(ode(tau), _exact_flow(mpmath, r, eta, tau)):
                    assert abs(got - want) <= mpmath.mpf(1e-25), (r, eta, tau)

    @pytest.mark.parametrize("tau", [5e-5, 5e-4])
    def test_matches_the_exact_flow(self, tau):
        # the closed form at 30 digits; exp(-6 tau tanh^2 r') in place of the exact eta decay
        # was off by 6.7e-8 at tau = 5e-5, eta = 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for eta in (1e-3, 1.0, 3.0, math.pi - 1e-3):
                with np.errstate(over="raise", invalid="raise"):
                    r_new, eta_new = mc_oracle._drift_flow(np.array(_FLOW_RS),
                                                           np.full(len(_FLOW_RS), eta), tau)
                for r, got_r, got_eta in zip(_FLOW_RS, r_new, eta_new):
                    want_r, want_eta = _exact_flow(mpmath, r, eta, tau)
                    assert abs(got_r - want_r) <= 2e-13 * want_r, (r, eta)
                    assert abs(got_eta - want_eta) <= 1e-13, (r, eta)

    @pytest.mark.parametrize("tau", [5e-5, 5e-4])
    def test_is_a_flow(self, tau):
        # two steps of tau are one step of 2 tau, which the fused chain relies on
        rs = np.array(_FLOW_RS)
        for eta in (1e-3, 1.0, 3.0, math.pi - 1e-3):
            etas = np.full(len(rs), eta)
            with np.errstate(over="raise", invalid="raise"):
                twice = mc_oracle._drift_flow(*mc_oracle._drift_flow(rs, etas, tau), tau)
                once = mc_oracle._drift_flow(rs, etas, 2.0 * tau)
            assert np.all(np.abs(twice[0] - once[0]) <= 1e-13 * once[0]), eta
            assert np.all(np.abs(twice[1] - once[1]) <= 1e-13), eta

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_even_in_r_and_eta(self, dtype):
        # the flow reads r only through sinh^2 r and eta only through cos eta, so the kick need
        # not fold either at 0.  Bit for bit only up to the shift cutoff, where -r takes the
        # sinh branch and r the shift; a kick leaves r >= 0 from every r >= sqrt(2 dt)
        rs, etas = np.linspace(0.0, mc_oracle._R_SHIFT, 2001), np.linspace(0.0, math.pi, 181)
        r, eta = (grid.ravel().astype(dtype) for grid in np.meshgrid(rs, etas))
        for tau in (5e-8, 5e-5, 5e-4):
            with np.errstate(over="raise", invalid="raise"):
                plus = mc_oracle._drift_flow(r, eta, tau)
                minus = mc_oracle._drift_flow(-r, -eta, tau)
            for got, want in zip(minus, plus):
                assert got.dtype == dtype and np.array_equal(got, want), tau

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dt", [1.5e-7, 1e-6, 1e-4, 1e-3])
    def test_half_drift_lifts_r_above_eps(self, dt, dtype):
        # r needs no reflection: a drift of tau leaves r >= arcsinh(sqrt(expm1(28 tau) / 2)),
        # above _EPS for tau >= 7.15e-8; the negative starts are those of an unfolded kick
        r = np.linspace(-0.05, 0.05, 10001).astype(dtype)
        r_new, _ = mc_oracle._drift_flow(r, np.full_like(r, 1.0), dt / 2.0)
        assert r_new.dtype == dtype and np.all(r_new >= mc_oracle._EPS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_cos_eta_in_range_without_a_clamp(self, dtype):
        # the flow scales cos eta by a factor of at most 1 (AM-GM); at the poles cos eta is +-1,
        # so a factor above 1 would leave [-1, 1] and make arccos NaN.  r crosses _R_SHIFT
        r = np.concatenate([[0.0], np.geomspace(1e-9, 60.0, 3000)]).astype(dtype)
        for tau in np.geomspace(1e-14, 5e-4, 200):
            for pole in (0.0, math.pi):
                with np.errstate(invalid="raise"):
                    _, eta = mc_oracle._drift_flow(r, np.full_like(r, pole), float(tau))
                assert eta.dtype == dtype and np.all((eta >= 0.0) & (eta <= math.pi)), (tau, pole)

    def test_cos_is_at_most_one_near_the_poles(self):
        # the other factor of the flow's product: numpy's cos where it is nearest +-1
        near_zero = np.geomspace(1e-30, 1e-2, 200001)
        pi32 = np.float32(math.pi).view(np.int32)
        half_width = int(1e-2 / np.spacing(np.float32(math.pi)))  # every float32 within 1e-2 of pi
        for x in (np.concatenate([[0.0], near_zero, -near_zero]).astype(np.float32),
                  np.concatenate([[0.0], near_zero, -near_zero]),
                  np.arange(pi32 - half_width, pi32 + half_width + 1, dtype=np.int32)
                  .view(np.float32),
                  math.pi + np.linspace(-1e-2, 1e-2, 200001)):
            assert np.all(np.abs(np.cos(x)) <= 1.0), x.dtype


class TestAllocatingReference:
    # the step functions skip the cutoff, the shift and the reflections where no path needs
    # them, and write into arrays of their own; the allocating forms above apply them to every
    # path, and must give the same bits.  The reference clips cos eta to [-1, 1] and the flow
    # does not, so at the poles, exactly 0 and pi, the comparison also pins the flow's range
    _EPS = mc_oracle._EPS
    _ETAS = {"inner": (0.1, 3.0), "low": (0.0, 2.0 * _EPS),
             "high": (math.pi - 2.0 * _EPS, math.pi), "both": (0.0, math.pi),
             "zero": (0.0, 0.0), "pi": (math.pi, math.pi)}

    @pytest.mark.parametrize("tau", [5e-10, 5e-5, 5e-4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("r_max", [mc_oracle._R_SHIFT - 0.1, 40.0])
    @pytest.mark.parametrize("etas", list(_ETAS))
    def test_same_bits_and_inputs_untouched(self, dtype, r_max, etas, tau):
        rng = np.random.default_rng(44)
        n = 4096
        r = (r_max * 10.0 ** rng.uniform(-6.0, 0.0, n)).astype(dtype)  # reflections need r small
        eta = rng.uniform(*self._ETAS[etas], n).astype(dtype)
        if etas == "both":  # within 2 _EPS of each pole, and between
            eta[:n // 4] = rng.uniform(0.0, 2.0 * self._EPS, n // 4)
            eta[-n // 4:] = rng.uniform(math.pi - 2.0 * self._EPS, math.pi, n // 4)
        xi = (2.0 * rng.integers(0, 2, (2, n)) - 1.0).astype(dtype)
        inputs = [a.copy() for a in (r, eta, *xi)]
        pairs = [(mc_oracle._drift_flow(r, eta, tau), _allocating_drift_flow(r, eta, tau)),
                 (mc_oracle._kick(r, eta, *xi, tau), _allocating_kick(r, eta, *xi, tau)),
                 (mc_oracle._drift(r, eta, tau), _allocating_drift(r, eta, tau)),
                 (strang_step(r, eta, *xi, tau),
                  _allocating_drift(*_allocating_kick(r, eta, *xi, tau), tau))]
        for got, want in pairs:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype and np.array_equal(a, b)
        for before, after in zip(inputs, (r, eta, *xi)):
            assert np.array_equal(before, after)

    def test_simulate_paths_is_the_fused_chain_bit_for_bit(self):
        # three noise blocks and a snapshot inside the second, for a chunk narrower than a row
        n, dt, steps, seed = 300, 1e-3, 2 * mc_oracle._BLOCK + 3, 17
        snapshot = mc_oracle._BLOCK + 3
        bits = Philox(SeedSequence(entropy=(seed, 0)))
        noise = [_replayed_signs(bits)[:, :n] for _ in range(steps)]
        sets = simulate_paths(SdeConfig(n_paths=n, dt=dt, seed=seed, t_end=steps * dt),
                              snapshot_times=(snapshot * dt,))
        for got, k in zip(sets, (snapshot, steps)):
            want = _fused_chain(noise[:k], dt, dtype=np.float32)
            assert np.array_equal(got.r, want[0]) and np.array_equal(got.eta, want[1]), k


class TestSimulation:
    def test_deterministic_replay(self):
        cfg = SdeConfig(n_paths=500, dt=5e-4, seed=42, t_end=0.05)
        a = simulate_paths(cfg)[-1]
        b = simulate_paths(cfg)[-1]
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.eta, b.eta)

    def test_seed_changes_output(self):
        a = simulate_paths(SdeConfig(n_paths=200, dt=5e-4, seed=1, t_end=0.02))[-1]
        b = simulate_paths(SdeConfig(n_paths=200, dt=5e-4, seed=2, t_end=0.02))[-1]
        assert not np.array_equal(a.r, b.r)

    def test_state_space_respected(self):
        cfg = SdeConfig(n_paths=2000, dt=5e-4, seed=3, t_end=0.2)
        s = simulate_paths(cfg)[-1]
        assert np.all(s.r > 0)
        assert np.all(s.eta > 0)
        assert np.all(s.eta < math.pi)

    def test_snapshots_ordered(self):
        cfg = SdeConfig(n_paths=100, dt=5e-4, seed=4, t_end=0.1)
        sets = simulate_paths(cfg, snapshot_times=(0.05, 0.02))
        times = [s.time for s in sets]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(0.1)
        assert len(sets) == 3

    def test_chunk_boundary_stream_stability(self):
        # path k's stream depends only on (seed, k), not on how many paths run
        big = simulate_paths(SdeConfig(n_paths=300, dt=5e-4, seed=9, t_end=0.02))[-1]
        small = simulate_paths(SdeConfig(n_paths=40, dt=5e-4, seed=9, t_end=0.02))[-1]
        assert np.array_equal(big.r[:40], small.r)
        assert np.array_equal(big.eta[:40], small.eta)

    @staticmethod
    def _recorded_noise(monkeypatch, cfg):
        """The (xi_r, xi_eta) of every strang_step call of a serial run, in call order."""
        step, calls = mc_oracle.strang_step, []

        def recording_step(r, eta, xi_r, xi_eta, dt):
            calls.append((xi_r.copy(), xi_eta.copy()))
            return step(r, eta, xi_r, xi_eta, dt)

        monkeypatch.setattr(mc_oracle, "strang_step", recording_step)
        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 1)
        simulate_paths(cfg)
        return calls

    def test_one_stream_per_chunk(self, monkeypatch):
        # path k reads column k % _CHUNK of its chunk's stream, keyed by (seed, k // _CHUNK)
        chunk, seed = mc_oracle._CHUNK, 5
        # one step, so each chunk makes one call
        calls = self._recorded_noise(monkeypatch, SdeConfig(n_paths=chunk + 3, dt=5e-4,
                                                            seed=seed, t_end=5e-4))
        assert [len(xi_r) for xi_r, _ in calls] == [chunk, 3]
        for index, (xi_r, xi_eta) in enumerate(calls):
            block = _replayed_signs(Philox(SeedSequence(entropy=(seed, index))))
            assert np.array_equal(xi_r, block[0, :len(xi_r)])
            assert np.array_equal(xi_eta, block[1, :len(xi_eta)])

    def test_noise_is_signs_in_stream_order(self, monkeypatch):
        # each step takes 256 words of the chunk's stream, whatever its width, and column j
        # of row i is +1 where bit j % 64 of word 128 i + j // 64 is set, and -1 where not
        chunk, seed, steps = mc_oracle._CHUNK, 3, 2
        calls = self._recorded_noise(monkeypatch, SdeConfig(n_paths=chunk + 70, dt=5e-4,
                                                            seed=seed, t_end=steps * 5e-4))
        assert [len(xi_r) for xi_r, _ in calls] == [chunk] * steps + [70] * steps
        for k, noise in enumerate(calls):
            index, step = divmod(k, steps)
            words = Philox(SeedSequence(entropy=(seed, index))).random_raw(256 * steps)
            words = words[256 * step:256 * (step + 1)]
            for i, xi in enumerate(noise):
                assert np.all(np.abs(xi) == 1.0)
                j = np.arange(len(xi))
                bit = (words[128 * i + j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
                assert np.array_equal(xi, np.where(bit == 1, 1.0, -1.0)), (index, step, i)

    def test_fused_chain_is_the_strang_chain(self):
        # the unfused chain of half drifts D(dt/2) N D(dt/2), fed the same noise; where it
        # reflects eta between two half drifts the fused chain need not follow it
        n, dt, steps, seed, eps = 2000, 2e-4, 500, 12, mc_oracle._EPS
        bits = Philox(SeedSequence(entropy=(seed, 0)))
        noise = [_replayed_signs(bits)[:, :n] for _ in range(steps)]
        fused_r, fused_eta = _fused_chain(noise, dt)
        root = math.sqrt(2.0 * dt)
        r, eta = np.full(n, eps), np.full(n, eps)
        reflected = np.zeros(n, dtype=bool)
        for xi_r, xi_eta in noise:
            r, eta = mc_oracle._drift_flow(r, eta, dt / 2.0)
            r, eta = np.abs(r + root * xi_r), np.abs(eta + root * np.tanh(r) * xi_eta)
            r, eta = mc_oracle._drift_flow(r, eta, dt / 2.0)
            r = np.where(r < eps, 2.0 * eps - r, r)
            low, high = eta < eps, eta > math.pi - eps
            reflected |= low | high
            eta = np.where(low, 2.0 * eps - eta, np.where(high, 2.0 * (math.pi - eps) - eta, eta))
        assert np.all(np.abs(fused_r - r) <= 1e-12 * r)
        assert np.count_nonzero(~reflected) >= n // 2
        assert np.all(np.abs(fused_eta - eta)[~reflected] <= 1e-10)
        # simulate_paths runs the fused chain in float32 and returns it as float64; over seeds
        # 12-23 it was at most 3.0e-6 relative off in r and 1.4e-5 in eta
        got = simulate_paths(SdeConfig(n_paths=n, dt=dt, seed=seed, t_end=steps * dt))[-1]
        assert got.r.dtype == got.eta.dtype == np.float64
        assert np.all(np.abs(got.r - fused_r) <= 1e-5 * fused_r)
        assert np.all(np.abs(got.eta - fused_eta) <= 5e-5)

    def test_snapshots_do_not_perturb_the_chain(self):
        # a snapshot closes a copy of the chain with a half drift; the chain runs on
        cfg = dict(n_paths=300, dt=5e-4, seed=10)
        long = simulate_paths(SdeConfig(t_end=0.02, **cfg), snapshot_times=(0.01,))
        short = simulate_paths(SdeConfig(t_end=0.01, **cfg))[-1]
        plain = simulate_paths(SdeConfig(t_end=0.02, **cfg))[-1]
        for snapshot, alone in zip(long, (short, plain)):
            assert snapshot.time == alone.time
            assert np.array_equal(snapshot.r, alone.r)
            assert np.array_equal(snapshot.eta, alone.eta)


class TestProcessPool:
    def test_pool_is_bitwise_identical_to_serial(self, monkeypatch):
        # three chunks, the last of one path, on one process and on a pool of two
        cfg = SdeConfig(n_paths=2 * mc_oracle._CHUNK + 1, dt=5e-4, seed=8, t_end=0.01)
        pools, pool = [], concurrent.futures.ProcessPoolExecutor

        def counted_pool(workers, **kwargs):
            pools.append(workers)
            return pool(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: cpus)
            runs.append(simulate_paths(cfg, snapshot_times=(0.005,)))
        assert pools == [2]
        for serial, pooled in zip(*runs):
            assert serial.time == pooled.time
            assert np.array_equal(serial.r, pooled.r)
            assert np.array_equal(serial.eta, pooled.eta)

    def test_single_chunk_builds_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for one chunk")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 2)
        s = simulate_paths(SdeConfig(n_paths=mc_oracle._CHUNK, dt=5e-4, t_end=0.001))[-1]
        assert s.r.shape == (mc_oracle._CHUNK,)

    @pytest.mark.parametrize("platform", [sys.platform, "darwin"], ids=["native", "darwin"])
    def test_pool_forks_on_linux_and_spawns_elsewhere(self, monkeypatch, platform):
        cfg = SdeConfig(n_paths=mc_oracle._CHUNK + 1, dt=5e-4, seed=4, t_end=0.001)
        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 1)
        serial = simulate_paths(cfg)[-1]
        methods, pool = [], concurrent.futures.ProcessPoolExecutor

        def counted_pool(workers, **kwargs):
            methods.append(kwargs["mp_context"].get_start_method())
            return pool(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sys, "platform", platform)
        pooled = simulate_paths(cfg)[-1]
        assert methods == ["fork" if platform == "linux" else "spawn"]
        assert np.array_equal(serial.r, pooled.r)
        assert np.array_equal(serial.eta, pooled.eta)

    @staticmethod
    def _run_unguarded(tmp_path, *lines):
        """Run a script of two 8192-path chunks on two workers, its top level unguarded."""
        script = tmp_path / "unguarded.py"
        script.write_text("\n".join([
            "import hashlib, sys",
            "from octads import mc_oracle",
            *lines,
            "mc_oracle._usable_cpus = lambda: 2",
            "s = mc_oracle.simulate_paths(mc_oracle.SdeConfig(",
            "    n_paths=mc_oracle._CHUNK + 1, dt=5e-4, t_end=0.001))[-1]",
            "print(hashlib.sha1(s.r.tobytes() + s.eta.tobytes()).hexdigest())",
            "print('numpy.random' in sys.modules)", ""]))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_unguarded_script_runs_on_linux(self, tmp_path, monkeypatch):
        # forked workers inherit the imported script instead of re-running it; numpy.random,
        # which the script has not loaded, the caller imports before the fork, where each
        # worker imported it itself
        proc = self._run_unguarded(tmp_path, "assert 'numpy.random' not in sys.modules")
        assert proc.returncode == 0
        assert proc.stderr == ""
        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 1)
        s = simulate_paths(SdeConfig(n_paths=mc_oracle._CHUNK + 1, dt=5e-4, t_end=0.001))[-1]
        digest = hashlib.sha1(s.r.tobytes() + s.eta.tobytes()).hexdigest()
        assert proc.stdout.split() == [digest, "True"]

    def test_unguarded_script_names_the_main_guard(self, tmp_path):
        # each spawned worker re-ran the script and died, and the caller got a bare
        # BrokenProcessPool
        proc = self._run_unguarded(tmp_path, 'sys.platform = "darwin"  # the spawn path')
        assert proc.returncode != 0
        # multiprocessing's resource tracker, a process of its own, may warn on the same
        # stderr about the semaphores that the dead workers left behind
        last = [line for line in proc.stderr.splitlines()
                if line.strip() and "resource_tracker" not in line][-1]
        assert last.startswith("RuntimeError: ")
        assert 'if __name__ == "__main__":' in last


def test_only_a_simulation_loads_numpy_random():
    # numpy.random, 6 MiB resident, was imported with the package by every process
    # and numpy.polynomial, 0.75 MiB, by the first kernel evaluation; no route loads it now
    script = "; ".join([
        "import sys, numpy as np, octads, octads.cli",
        "octads.weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), 0.25, f_growth=1.0)",
        "octads.heat_kernel_rep1(0.5, 1.0, 0.3)", "octads.heat_kernel_rep2(0.5, 1.0, 0.3)",
        "octads.heat_residual('rep1', 1.0, 0.5, 1.0)",
        "print('numpy.random' in sys.modules, 'numpy.polynomial' in sys.modules)",
        "octads.simulate_paths(octads.SdeConfig(n_paths=64, dt=5e-4, t_end=0.001))",
        "print('numpy.random' in sys.modules)"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


@pytest.fixture(scope="module")
def samples_at_half():
    """20000 paths to t = 1/2, shared by the moment examples."""
    return simulate_paths(SdeConfig(n_paths=20000, dt=2e-4, seed=1, t_end=0.5))[-1]


class TestExpectations:
    def test_constant_function(self):
        # the scalar raised "1 sample(s) cannot estimate a standard error": it was the sample
        samples = simulate_paths(SdeConfig(n_paths=100, dt=5e-4, seed=6, t_end=0.01))[-1]
        for f in (lambda r, eta: np.ones_like(r), lambda r, eta: 1.0):
            mean, err = estimate_expectation(f, samples)
            assert mean == 1.0
            assert err == 0.0

    def test_values_that_do_not_broadcast_are_refused(self):
        # three values over 1000 samples gave (2.0, 0.577), the mean of the three
        samples = mc_oracle.SampleSet(time=0.01, r=np.linspace(0.1, 1.0, 1000),
                                      eta=np.linspace(0.1, 3.0, 1000))
        with pytest.raises(ValueError, match="broadcast"):
            estimate_expectation(lambda r, eta: np.array([1.0, 2.0, 3.0]), samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_that_are_not_finite_are_refused(self, bad):
        # one such value made the result (nan, nan)
        samples = mc_oracle.SampleSet(time=0.01, r=np.linspace(0.1, 1.0, 1000),
                                      eta=np.linspace(0.1, 3.0, 1000))
        with pytest.raises(ValueError, match="not finite on the samples at t = 0.01"):
            estimate_expectation(lambda r, eta: np.where(r > 0.5, bad, r), samples)

    def test_complex_values_are_refused(self):
        # exp(i eta) printed a ComplexWarning and gave the mean of cos eta
        samples = mc_oracle.SampleSet(time=0.01, r=np.linspace(0.1, 1.0, 100),
                                      eta=np.linspace(0.1, 3.0, 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (lambda r, eta: np.exp(1j * eta), lambda r, eta: 1.0 + 0j):
                with pytest.raises(ValueError, match="complex on the samples at t = 0.01"):
                    estimate_expectation(f, samples)

    def test_one_sample_has_no_standard_error(self):
        # it returned (0.997, 0.0): a standard error of 0 that bounds nothing
        samples = simulate_paths(SdeConfig(n_paths=1, dt=5e-4, t_end=0.01))[-1]
        with pytest.raises(ValueError, match="standard error"):
            estimate_expectation(lambda r, eta: np.cos(eta), samples)

    def test_mean_and_stderr_formulas(self):
        samples = simulate_paths(SdeConfig(n_paths=50, dt=5e-4, seed=7, t_end=0.01))[-1]
        mean, err = estimate_expectation(lambda r, eta: r, samples)
        assert mean == pytest.approx(float(np.mean(samples.r)))
        assert err == pytest.approx(float(np.std(samples.r, ddof=1)) / math.sqrt(50))

    def test_eigen_moment_example(self, samples_at_half):
        # growing moment of cosh(r) cos(eta): e^{8t} at t = 1/2
        mean, err = estimate_expectation(lambda r, eta: np.cosh(r) * np.cos(eta),
                                         samples_at_half)
        assert abs(mean - math.exp(4.0)) <= 3.0 * err

    def test_oracle_functions_against_quadrature(self):
        t = 0.4
        cfg = SdeConfig(n_paths=20000, dt=2e-4, seed=11, t_end=t)
        samples = simulate_paths(cfg)[-1]
        mass = total_mass(t)
        for name, f, growth in MC_TEST_FUNCTIONS:
            mean, err = estimate_expectation(f, samples)
            analytic = weighted_integral(f, t, f_growth=growth) / mass
            assert abs(mean - analytic) <= 4.0 * err, name

    def test_fiber_mode_moment_example(self, samples_at_half):
        # degree-2 fiber mode moment is near zero by t = 1/2 and must agree
        from octads.special_fn import jacobi_poly

        f = lambda r, eta: jacobi_poly(2, np.cos(eta))
        mean, err = estimate_expectation(f, samples_at_half)
        analytic = weighted_integral(f, 0.5) / total_mass(0.5)
        assert abs(mean - analytic) <= 3.0 * err


class TestBiasControl:
    # couple fine and coarse chains through the same increments; the mean shift then
    # isolates the discretization bias, in float64 and in the float32 that simulate_paths runs
    n, dt, steps = 4000, 4e-4, 750

    def _assert_halving_dt_within_stderr(self, noise, dtype):
        noise = noise.astype(dtype)
        rf, ef = _fused_chain(noise, self.dt / 2.0, dtype)
        rc, ec = _fused_chain((noise[0::2] + noise[1::2]) / math.sqrt(2.0), self.dt, dtype)
        for name, f, _ in MC_TEST_FUNCTIONS:
            fine = np.asarray(f(rf, ef), dtype=float)
            coarse = np.asarray(f(rc, ec), dtype=float)
            stderr = float(np.std(fine, ddof=1)) / math.sqrt(self.n)
            assert abs(float(np.mean(fine - coarse))) <= stderr, name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_halving_dt_with_common_noise(self, dtype):
        rng = np.random.default_rng(123)
        self._assert_halving_dt_within_stderr(rng.standard_normal((self.steps, 2, self.n)),
                                              dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_halving_dt_with_common_sign_noise(self, dtype):
        # the fine chain reads +-1 signs, as simulate_paths does, and the coarse chain their
        # pair sums over sqrt 2, which take the values -sqrt 2, 0 and sqrt 2
        rng = np.random.default_rng(123)
        signs = 2.0 * rng.integers(0, 2, (self.steps, 2, self.n)) - 1.0
        self._assert_halving_dt_within_stderr(signs, dtype)

    def test_float32_chain_is_the_float64_chain_in_mean(self):
        # the same signs through both precisions, 100000 paths to t = 0.25: the means of the
        # oracle's functions and of the eigenfunction cosh r cos eta agree to within 0.05
        # standard errors (at most 0.004 measured)
        n, dt, steps = 100_000, 5e-4, 500

        def signs():
            rng = np.random.default_rng(2024)
            for _ in range(steps):
                yield 2.0 * rng.integers(0, 2, (2, n)) - 1.0

        double, single = (_fused_chain(signs(), dt, dtype) for dtype in (np.float64, np.float32))
        eigen = ("cosh_r_cos_eta", lambda r, eta: np.cosh(r) * np.cos(eta), 1.0)
        for name, f, _ in (*MC_TEST_FUNCTIONS, eigen):
            want, got = f(*double), f(*single)
            stderr = float(np.std(want, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(got) - np.mean(want))) <= 0.05 * stderr, name
