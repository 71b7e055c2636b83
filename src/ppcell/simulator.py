"""Monte Carlo reference for the downlink coverage and rate formulas.

Each realization drops exactly n_bs_target base stations uniformly on a disc
whose radius is chosen so the empirical density equals lambda_bs, plus a
Poisson number of users. The tagged user sits at the origin and attaches to
the nearest base station. Idle mode switches off every base station that
serves no sampled user (the serving one always stays on).

Determinism contract: realization rid consumes two independent generator
lanes, default_rng([seed, rid, 0]) for geometry and [seed, rid, 1] for
fading, so results are bitwise identical for any jobs count and any subset
of realizations. Draw order within a lane is fixed: geometry draws BS radii,
BS angles, user count, user radii, user angles; fading draws exactly one
Exp(1) serving-link gain. Interferers see plain path loss.

run_simulation seeds those lanes a block of realizations at a time: the
SeedSequence hashing that default_rng does per call is done for the whole
block in numpy (_lane_states), and so is PCG64's seeding step, one 128-bit
LCG step (_pcg_states). One PCG64 and one Generator per lane serve the
whole run; per realization each PCG64's state and increment are written
into its memory in place, so the streams are still exactly the
default_rng([seed, rid, lane]) ones. Every block checks its first row's
hash against numpy's SeedSequence and its first written PCG64 state
against the one numpy seeds itself, and raises RuntimeError on a
difference, so a numpy change cannot alter the streams silently.

The geometry stays in those polar draws, (bs_u, bs_theta, ue_u, ue_theta)
as _draw_deployment returns them. Station j lies at distance
window_radius * sqrt(bs_u[j]) from the origin and serves the tagged user
when bs_u[j] is the smallest draw, so the SIR works from bs_u itself and
never evaluates a sine or cosine; _station_loads builds Cartesian positions
for user attachment only. With no users the block SIR below draws no
station angles: they are the geometry lane's last draw, so skipping them
changes no other draw.

Block SIR: _block_sir computes the SIRs of a (B, n_bs_target) block of
rows in place, one realization per row. Each rid fills its row with its
station radii and draws its serving gain. With users it also counts, with
one bincount of its users' nearest stations plus the tagged user, every
station's load: the serving station's entry is the serving-cell load, and
in idle mode the zero entries mark, in a mask of the block's shape, the
stations that sleep. The block then takes each row's serving column by
argmin. The path-loss constants cancel, SINR = g u_s^(-beta/2) / (sum over
the other active stations of u_i^(-beta/2) + sigma_n2 kappa R^beta / p_tx),
so the kernel turns the block into path gains u^(-beta/2), reads the
serving columns, zeroes them and the sleeping stations, and sums every
row's N columns with np.add.reduce(axis=-1), the reduction np.sum runs.
At an integer beta (3, 4 or 5) the gains are products of u, u and sqrt(u)
followed by one reciprocal, elementwise operations that round correctly;
any other beta takes one np.power pass. Sleeping stations are zeroed after
the gains, not set to inf before them: numpy's pow is about four times
slower on inf. A block holds at most _SIR_CELLS stations (256 KB of
gains, and as much sqrt scratch), or one row when a drop is larger. numpy
sums each C-contiguous row with the same pairwise summation as the 1-D sum
of that row, and every other step is elementwise, so each SIR is bitwise
the one the realization gets alone in a one-row block, and the same for
any jobs count. np.add.reduceat would sum ragged rows in one call, but it
adds each segment sequentially, not pairwise, and so changes the last bits.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator

from .analytics import RateMethod, RateResult
from .mgf import _MAX_REALIZATIONS, NetworkParams, SimConfig

__all__ = [
    "SimConfig",
    "SirSampleSet",
    "estimate_coverage",
    "estimate_rates",
    "run_simulation",
]

_MIN_RATE_SAMPLES = 100

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the generator lanes of every realization: 0 draws the geometry, 1 the fading
_LANES = (0, 1)
# realizations whose lane states are hashed together; bounds the state memory
_LANE_BLOCK = 1024
# stations per SIR block (rows x n_bs_target): 256 KB of path gains
_SIR_CELLS = 32768
# the largest mean Generator.poisson accepts (POISSON_LAM_MAX in numpy/random/_generator.pyx)
_POISSON_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


@dataclass(frozen=True, eq=False)
class SirSampleSet:
    """Per-realization SIR draws plus the cell loads needed for rate shares."""

    sir_values: np.ndarray
    n_users_in_cell: np.ndarray
    n_active_bs: np.ndarray

    def __post_init__(self) -> None:
        n = self.sir_values.size
        for name in ("n_users_in_cell", "n_active_bs"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} length mismatch with sir_values ({n})")

    @property
    def rate_peak_samples(self) -> np.ndarray:
        return np.log1p(self.sir_values)

    @property
    def rate_actual_samples(self) -> np.ndarray:
        return self.rate_peak_samples / self.n_users_in_cell


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence coerces an int."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _lane_states(seed: int, rid_lo: int, rid_hi: int) -> np.ndarray:
    """SeedSequence([seed, rid, lane]).generate_state(4, np.uint64) for a block.

    Returns shape (len(_LANES), rid_hi - rid_lo, 4). The hash constants
    evolve the same way for every entropy of one length, so the rows are
    hashed side by side as uint32 arrays; rids must be below 2**32.
    """
    if not 0 <= rid_lo < rid_hi <= _MAX_REALIZATIONS:
        raise ValueError(f"rids must lie in [0, 2**32), got [{rid_lo}, {rid_hi})")
    n = rid_hi - rid_lo
    rid = np.tile(np.arange(rid_lo, rid_hi, dtype=np.uint32), len(_LANES))
    lane = np.repeat(np.asarray(_LANES, dtype=np.uint32), n)
    entropy = [np.full(rid.size, w, dtype=np.uint32) for w in _uint32_words(seed)] + [rid, lane]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    # SeedSequence.mix_entropy with its pool of four words
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(rid)) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, len(entropy)):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))
    # SeedSequence.generate_state: eight uint32 words read as four little-endian uint64
    hash_const = _INIT_B
    words = np.empty((rid.size, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words[:, i] = value ^ (value >> np.uint32(16))
    states = words.astype("<u4").view("<u8").astype(np.uint64).reshape(len(_LANES), n, 4)
    # numpy's own hashing of the first rid
    for k, lane_id in enumerate(_LANES):
        want = np.random.SeedSequence([seed, rid_lo, lane_id]).generate_state(4, np.uint64)
        if not np.array_equal(states[k, 0], want):
            raise RuntimeError(
                f"block lane seeding disagrees with numpy's SeedSequence at seed={seed}, rid={rid_lo}, "
                f"lane={lane_id}; numpy {np.__version__} changed its seeding"
            )
    return states


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a*b of uint64 arrays, by 32-bit halves."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    cross = a1 * b0
    mid = (a0 * b0 >> s32) + (cross & m32) + (a0 * b1 & m32)
    return a1 * b1 + (cross >> s32) + (a0 * b1 >> s32) + (mid >> s32)


def _pcg_states(words: np.ndarray) -> np.ndarray:
    """The (state, inc) PCG64 seeds from SeedSequence words, for a whole table.

    The last axis of words holds generate_state(4, np.uint64) rows w0..w3.
    PCG64 takes s = w0*2**64 + w1 and i = w2*2**64 + w3, sets inc = 2i + 1
    and state = ((inc + s)*M + inc) mod 2**128 (pcg64_srandom_r's two LCG
    steps from 0). Returns the words (state_lo, state_hi, inc_lo, inc_hi)
    along the last axis, in uint64 arithmetic that wraps mod 2**64.
    """
    one, s63 = np.uint64(1), np.uint64(63)
    m_lo, m_hi = np.uint64(_PCG_MULT & _MASK64), np.uint64(_PCG_MULT >> 64)
    s_hi, s_lo, i_hi, i_lo = np.moveaxis(words, -1, 0)
    inc_lo = i_lo << one | one
    inc_hi = i_hi << one | i_lo >> s63
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < inc_lo)
    state_lo = a_lo * m_lo + inc_lo
    state_hi = _mul_hi(a_lo, m_lo) + a_hi * m_lo + a_lo * m_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=-1)


def _word_order(memory: list[int], state: int, inc: int) -> list[int]:
    """Which of (state_lo, state_hi, inc_lo, inc_hi) each word of a PCG64's memory holds.

    memory is the four native uint64 words of a PCG64's (state, inc) and
    state, inc the values its .state reports. The low word comes first
    where the compiler has a 128-bit integer, the high word in numpy's
    emulated pcg128_t; anything else raises RuntimeError.
    """
    words = [state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]
    for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
        if [words[i] for i in order] == memory:
            return order
    raise RuntimeError(f"PCG64 keeps its state in an unknown layout under numpy {np.__version__}")


def _pcg_memory(bit_generator: PCG64) -> tuple[memoryview, ctypes.c_uint64, list[int]]:
    """Writable views of a numpy-seeded PCG64's seeding state, with its word order.

    numpy's pcg64_state (at ctypes.state_address) is a pointer to the
    32 bytes of (state, inc), then the int has_uint32 and the uint32
    uinteger that buffer half of a 64-bit draw. Returns the 32 bytes as a
    memoryview, the two flags as one c_uint64 (0 clears both, as PCG64
    seeding does) and _word_order's order. One float32 draw buffers a half
    first, so the flags' place is checked against .state too.
    """
    Generator(bit_generator).random(dtype=np.float32)
    address = bit_generator.ctypes.state_address
    words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
    flags_address = address + ctypes.sizeof(ctypes.c_void_p)
    st = bit_generator.state
    if list((ctypes.c_uint32 * 2).from_address(flags_address)) != [st["has_uint32"], st["uinteger"]]:
        raise RuntimeError(f"PCG64 keeps its buffered draw in an unknown layout under numpy {np.__version__}")
    order = _word_order(list(words), st["state"]["state"], st["state"]["inc"])
    return memoryview(words).cast("B"), ctypes.c_uint64.from_address(flags_address), order


def _lanes(seed: int, rid_lo: int, rid_hi: int) -> Iterator[list[Generator]]:
    """For each rid in [rid_lo, rid_hi), one generator per lane of _LANES, drawing default_rng([seed, rid, lane]).

    One PCG64 and one Generator per lane serve the whole call, and every
    step yields the same list: its generators are valid only until the
    next step. Per rid, each PCG64's (state, inc) is overwritten in place
    from a _pcg_states table computed _LANE_BLOCK rids at a time, and its
    buffered half draw is cleared, which is all that PCG64 seeding sets.
    After the first rid of each block every lane's full .state must equal
    the PCG64([seed, rid, lane]) one numpy seeds, or RuntimeError is raised.
    """
    gens = [Generator(PCG64(0)) for _ in _LANES]
    views = [_pcg_memory(g.bit_generator) for g in gens]
    for lo in range(rid_lo, rid_hi, _LANE_BLOCK):
        hi = min(lo + _LANE_BLOCK, rid_hi)
        states = _pcg_states(_lane_states(seed, lo, hi))
        slots = [(words, flags, memoryview(np.ascontiguousarray(table[:, order])).cast("B"))
                 for (words, flags, order), table in zip(views, states)]
        for start in range(0, 32 * (hi - lo), 32):
            for words, flags, rows in slots:
                words[:] = rows[start : start + 32]
                flags.value = 0
            if start == 0:
                for lane_id, g in zip(_LANES, gens):
                    if g.bit_generator.state != PCG64([seed, lo, lane_id]).state:
                        raise RuntimeError(
                            f"block PCG64 seeding disagrees with numpy's at seed={seed}, rid={lo}, "
                            f"lane={lane_id}; numpy {np.__version__} changed PCG64"
                        )
            yield gens


def _cartesian(u: np.ndarray, theta: np.ndarray, radius: float) -> np.ndarray:
    r = radius * np.sqrt(u)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _window_radius(p: NetworkParams, cfg: SimConfig) -> float:
    """Disc radius that holds n_bs_target stations at density lambda_bs."""
    return math.sqrt(cfg.n_bs_target / (math.pi * p.lambda_bs))


def _user_mean(p: NetworkParams, radius: float) -> float:
    """Mean number of users on the window disc, lambda_ue * pi * R^2."""
    return p.lambda_ue * math.pi * radius * radius


def _check_user_mean(p: NetworkParams, cfg: SimConfig) -> None:
    """Refuse a mean user count that numpy's Poisson draw would reject, naming the inputs."""
    if _user_mean(p, _window_radius(p, cfg)) > _POISSON_MAX:
        mean = p.lambda_ue / p.lambda_bs * cfg.n_bs_target
        raise ValueError(
            f"the mean user count lambda_ue / lambda_bs * n_bs_target = {mean:.3g} is past numpy's "
            f"Poisson limit {_POISSON_MAX:.3g}; raise lambda_bs or lower lambda_ue or n_bs_target"
        )


def _draw_deployment(
    p: NetworkParams, cfg: SimConfig, rng: Generator, bs_u: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(bs_u, bs_theta, ue_u, ue_theta) from a lane-0 generator, in the documented draw order.

    The station radii are drawn into bs_u when it is given.
    """
    bs_u = rng.random(cfg.n_bs_target, out=bs_u)
    bs_theta = 2.0 * math.pi * rng.random(cfg.n_bs_target)
    n_ue = int(rng.poisson(_user_mean(p, _window_radius(p, cfg))))
    ue_u = rng.random(n_ue)
    ue_theta = 2.0 * math.pi * rng.random(n_ue)
    return bs_u, bs_theta, ue_u, ue_theta


def _station_loads(
    bs_u: np.ndarray, bs_theta: np.ndarray, ue_u: np.ndarray, ue_theta: np.ndarray, radius: float
) -> np.ndarray:
    """Users attached to each base station, the tagged user counted at the serving one, argmin(bs_u).

    Each sampled user attaches to its nearest station; the draws are read, not written.
    """
    nearest = np.zeros(0, dtype=np.int64)
    if ue_u.size:
        # imported on first use, so analytic-only runs never load scipy.spatial
        from scipy.spatial import cKDTree

        # both position arrays are built before the tree: building the users'
        # after it made an idle realization about 5% slower (paired runs)
        bs_xy = _cartesian(bs_u, bs_theta, radius)
        ue_xy = _cartesian(ue_u, ue_theta, radius)
        _, nearest = cKDTree(bs_xy).query(ue_xy)
    loads = np.bincount(nearest, minlength=bs_u.size)
    loads[np.argmin(bs_u)] += 1
    return loads


def _noise(p: NetworkParams, radius: float) -> float:
    """The noise term sigma_n2 kappa R^beta / p_tx in the kernel's units.

    0 without noise. inf where R^beta leaves the float range: at such a
    vanishing density the SINR underflows to 0, the noise-limited limit.
    """
    if p.sigma_n2 == 0.0:
        return 0.0
    try:
        return p.sigma_n2 * p.kappa * radius**p.beta / p.p_tx
    except OverflowError:
        return math.inf


def _path_gains(u: np.ndarray, root: np.ndarray, beta: float) -> None:
    """u**(-beta/2) in place; root is scratch of u's shape.

    At an integer beta (3, 4 or 5 in its range) u**(beta/2) is a product
    of u, u and sqrt(u), and one reciprocal follows. Each step rounds
    correctly, so a gain is off the exact one by at most 3.5e-16 relative
    (np.power: 1.3e-16), and every step is cheaper than the pow. Any other
    beta goes through np.power.
    """
    if not float(beta).is_integer():
        np.power(u, -beta / 2.0, out=u)
        return
    odd = beta % 2.0 == 1.0
    if odd:
        np.sqrt(u, out=root)
    if beta >= 4.0:
        np.multiply(u, u, out=u)
    if odd:
        np.multiply(u, root, out=u)
    np.reciprocal(u, out=u)


def _block_sir(
    u: np.ndarray,
    root: np.ndarray,
    serving: np.ndarray,
    asleep: np.ndarray | None,
    gains: float | np.ndarray,
    noise: float,
    beta: float,
) -> np.ndarray:
    """SIR (SINR when noise > 0) at the origin for each row of a block.

    u holds the station draws bs_u of B realizations, shape (B, N), and is
    overwritten; root is scratch of the same shape. serving holds each
    row's serving column, shape (B,). asleep masks the stations idle mode
    switched off, shape (B, N) (None: all are on). gains are the rows'
    serving-link Exp(1) gains; interferers carry no fading. noise is
    _noise(p, R). The path-loss constants cancel: SINR = g u_s^(-beta/2) /
    (sum of the other active u_i^(-beta/2) + noise). Rows with nothing
    interfering and no noise get inf. Returns the B values.
    """
    _path_gains(u, root, beta)
    cells = (np.arange(serving.size), serving)
    signal = gains * u[cells]
    u[cells] = 0.0
    if asleep is not None:
        u[asleep] = 0.0
    denom = np.add.reduce(u, axis=-1) + noise
    sir = np.full_like(denom, math.inf)
    return np.divide(signal, denom, out=sir, where=denom != 0.0)


def _simulate_block(args: tuple[NetworkParams, SimConfig, bool, int, int]) -> tuple[np.ndarray, ...]:
    """SIR, serving-cell load and active-station count of rids [rid_lo, rid_hi)."""
    p, cfg, idle_mode, rid_lo, rid_hi = args
    n = rid_hi - rid_lo
    n_bs = cfg.n_bs_target
    sirs = np.empty(n)
    users = np.ones(n, dtype=np.int64)
    active = np.full(n, n_bs, dtype=np.int64)
    lanes = _lanes(cfg.seed, rid_lo, rid_hi)
    radius = _window_radius(p, cfg)
    noise = _noise(p, radius)
    rows = min(n, max(1, _SIR_CELLS // n_bs))
    u = np.empty((rows, n_bs))
    root = np.empty((rows, n_bs))
    asleep = np.empty((rows, n_bs), dtype=bool) if idle_mode else None
    gains = np.empty(rows)
    for lo in range(0, n, rows):
        b = min(rows, n - lo)
        for k, (geometry, fading) in zip(range(b), lanes):
            if p.lambda_ue > 0.0:
                loads = _station_loads(*_draw_deployment(p, cfg, geometry, u[k]), radius)
                users[lo + k] = loads[np.argmin(u[k])]
                if idle_mode:
                    active[lo + k] = np.count_nonzero(loads)
                    np.equal(loads, 0, out=asleep[k])
            else:
                geometry.random(out=u[k])
            # bitwise exponential(), which only scales by 1.0, and cheaper
            gains[k] = fading.standard_exponential()
        sleeping = asleep[:b] if idle_mode else None
        sirs[lo : lo + b] = _block_sir(u[:b], root[:b], np.argmin(u[:b], axis=1), sleeping, gains[:b], noise, p.beta)
    return sirs, users, active


def run_simulation(
    p: NetworkParams,
    cfg: SimConfig,
    idle_mode: bool = False,
    jobs: int = 1,
) -> SirSampleSet:
    """Run cfg.n_realizations independent drops; output is jobs-invariant.

    The tagged user at the origin is extra (not one of the sampled users) and
    is counted into its own cell load, so n_users_in_cell >= 1.
    """
    if idle_mode and p.lambda_ue <= 0.0:
        raise ValueError("idle mode needs lambda_ue > 0, otherwise every interferer sleeps")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    _check_user_mean(p, cfg)
    n = cfg.n_realizations
    jobs = min(jobs, n, os.cpu_count() or 1)
    if jobs == 1:
        blocks = [_simulate_block((p, cfg, idle_mode, 0, n))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        if p.lambda_ue > 0.0:
            # attachment needs the kd-tree; loaded once here, the forked
            # workers inherit it instead of each importing it again
            import scipy.spatial  # noqa: F401

        step = -(-n // jobs)
        tasks = [(p, cfg, idle_mode, lo, min(lo + step, n)) for lo in range(0, n, step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_simulate_block, tasks))
    # blocks arrive in submission order, which is rid order
    sirs, users, active = (np.concatenate(parts) for parts in zip(*blocks))
    return SirSampleSet(sir_values=sirs, n_users_in_cell=users, n_active_bs=active)


def estimate_coverage(
    samples: SirSampleSet,
    gamma_grid: tuple[float, ...] | list[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(SIR > gamma) with binomial standard errors.

    Infinite SIR draws (no interference, no noise) exceed every threshold,
    so they count as covered.
    """
    grid = np.asarray(gamma_grid, dtype=np.float64)
    n = samples.sir_values.size
    # count of draws > g = n - (count <= g); exact integers, so bitwise the
    # same as counting per threshold
    n_above = n - np.searchsorted(np.sort(samples.sir_values), grid, side="right")
    pcov = n_above / n
    stderr = np.sqrt(pcov * (1.0 - pcov) / n)
    return pcov, stderr


def estimate_rates(samples: SirSampleSet) -> tuple[RateResult, RateResult]:
    """Mean peak and actual rate over realizations with finite SIR.

    Needs at least 100 samples for the standard error to mean anything. When
    every draw is infinite the no-interference sentinel is returned.
    """
    n = samples.sir_values.size
    if n < _MIN_RATE_SAMPLES:
        raise ValueError(f"need at least {_MIN_RATE_SAMPLES} realizations for rate estimates, got {n}")
    finite = np.isfinite(samples.sir_values)
    n_fin = int(np.count_nonzero(finite))
    if n_fin == 0:
        sentinel = RateResult(
            value=math.inf, method=RateMethod.MONTE_CARLO, stderr=0.0, no_interference=True
        )
        return sentinel, sentinel
    peak, actual = (
        RateResult(
            value=float(np.mean(rates)),
            method=RateMethod.MONTE_CARLO,
            stderr=float(np.std(rates, ddof=1) / math.sqrt(n_fin)) if n_fin > 1 else 0.0,
        )
        for rates in (samples.rate_peak_samples[finite], samples.rate_actual_samples[finite])
    )
    return peak, actual

