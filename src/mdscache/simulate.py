"""Seeded Monte Carlo trials over placement, delivery, and per-user decoding.

Coded files come in two flavors:

* real: files are random symbol strings, coded by the MDS codec, and every
  successful decode reconstructs the original file bit-exactly (needs
  r*f <= 65535, so that a codeword fits in GF(2^16))
* virtual: coded symbols are seeded pseudo-random values; a user succeeds when
  it ends up knowing >= f distinct coded symbols of its file, every one equal
  to the ground truth.  Delivery and accounting are value-exact either way,
  only the final interpolation step is vouched for by the codec test suite
  instead of being re-run per trial.  This is what makes file lengths far
  beyond the field size affordable.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from statistics import stdev

import numpy as np

from .analysis import rate_mds_dec
from .decoding import decode_points, decode_user
from .delivery import deliver, plan_schedule, require_enumerable
from .mds import CodecConfig, mds_encode
from .params import (ParamError, RequestVector, SystemParams, fraction_str,
                     require_valid)
from .placement import (TAG_FILE, TAG_TRIAL, TAG_VIRTUAL, derive_seed, keyed_u64,
                        prefetch)

EXACT_MATRIX_BYTES = 256 * 10**6


def pseudo_symbols(seed: int, count: int, width_mask: int = 0xFFFF) -> np.ndarray:
    """Deterministic symbol string: ``keyed_u64`` masked to the symbol width."""
    return (keyed_u64(seed, count) & np.uint64(width_mask)).astype(np.int64)


def require_exact_fits(params: SystemParams, demand: RequestVector) -> None:
    """Raise ParamError when one exact decode's dense int64 observation matrix,
    (m*f cached + planned delivery symbols) rows by n_files*f columns, would
    exceed EXACT_MATRIX_BYTES.  Computes the size only; allocates nothing."""
    planned = plan_schedule(params, demand).total
    rows = params.n_files * params.cached_per_file + math.ceil(planned)
    size = 8 * params.n_files * params.f * rows
    if size > EXACT_MATRIX_BYTES:
        raise ParamError(f"exact mode at f={params.f} needs a {size / 1e6:.0f} MB observation "
                         f"matrix per user, more than the limit of "
                         f"{EXACT_MATRIX_BYTES / 1e6:.0f} MB; use --mode accounting "
                         "or a smaller f")


def choose_codec(params: SystemParams, codec: str) -> str:
    """Resolve 'auto' to 'real' whenever one codeword fits in GF(2^16)."""
    if codec == "auto":
        return "real" if params.coded_len <= 65535 else "virtual"
    if codec == "real":
        CodecConfig.from_expansion(params.f, params.r)  # raises when infeasible
        return "real"
    if codec == "virtual":
        return "virtual"
    raise ValueError(f"codec must be auto, real, or virtual, got {codec!r}")


@dataclass
class TrialResult:
    trial: int
    seed: int
    demand: tuple[int, ...]
    codec_kind: str
    main_symbols: int
    fallback_symbols: int
    topup_symbols: int
    total_symbols: int
    rate: float
    per_iteration: tuple[tuple[int, int], ...]
    successes: tuple[bool, ...]
    known: tuple[int, ...]
    exact_successes: tuple[bool, ...] | None = None


@dataclass
class TrialStats:
    params: SystemParams
    demand: RequestVector
    mode: str
    codec_kind: str
    reconstruct: bool
    master_seed: int
    trials: list[TrialResult]

    @property
    def n_distinct(self) -> int:
        return self.demand.n_distinct

    @property
    def mean_rate_exact(self) -> Fraction:
        return Fraction(sum(t.total_symbols for t in self.trials),
                        len(self.trials) * self.params.f)

    @property
    def mean_rate(self) -> float:
        return float(self.mean_rate_exact)

    @property
    def std_rate(self) -> float:
        if len(self.trials) < 2:
            return 0.0
        return stdev(t.rate for t in self.trials)

    @property
    def success_fraction(self) -> float:
        flat = [ok for t in self.trials for ok in t.successes]
        return sum(flat) / len(flat)

    @property
    def topup_fraction(self) -> float:
        return sum(t.topup_symbols for t in self.trials) / (len(self.trials) * self.params.f)


def run_one_trial(params: SystemParams, demand: RequestVector, master_seed: int,
                  trial: int, mode: str, codec_kind: str,
                  reconstruct: bool = True) -> TrialResult:
    tseed = derive_seed(master_seed, TAG_TRIAL, trial)
    cache = prefetch(params, tseed)
    config: CodecConfig | None = None
    originals: dict[int, np.ndarray] = {}
    coded: dict[int, np.ndarray] = {}
    if codec_kind == "real":
        config = CodecConfig.from_expansion(params.f, params.r)
        for nf in range(params.n_files):
            originals[nf] = pseudo_symbols(derive_seed(tseed, TAG_FILE, nf), params.f,
                                           config.gf.order - 1)
            coded[nf] = mds_encode(originals[nf], config)
    else:
        for nf in range(params.n_files):
            coded[nf] = pseudo_symbols(derive_seed(tseed, TAG_VIRTUAL, nf), params.coded_len)

    schedule = deliver(params, cache, demand, coded, reconstruct=reconstruct)

    successes: list[bool] = []
    known: list[int] = []
    exact: list[bool] = []
    d0 = demand.zero_based
    for user in range(params.k):
        res = decode_points(params, user, schedule.known_points[user], config)
        if res.success:
            idx, vals = res.points
            truth = coded[d0[user]][idx]
            if not np.array_equal(vals, truth):
                raise AssertionError(
                    f"trial {trial}: user {user} accounted wrong symbol values")
            if config is not None and not np.array_equal(res.symbols, originals[d0[user]]):
                raise AssertionError(
                    f"trial {trial}: user {user} decoded a different file")
        successes.append(res.success)
        known.append(res.known)
        if mode == "exact":
            view = {nf: (cache.indices(user, nf), coded[nf][cache.indices(user, nf)])
                    for nf in range(params.n_files)}
            res_x = decode_user(params, user, view, schedule, mode="exact", codec=config)
            if res.success and not res_x.success:
                raise AssertionError(
                    f"trial {trial}: accounting claimed success rank analysis denies")
            exact.append(res_x.success)

    per_it = tuple((it.j, it.symbols) for it in schedule.iterations if it.symbols)
    total = schedule.total_symbols
    return TrialResult(
        trial=trial, seed=tseed, demand=demand.files, codec_kind=codec_kind,
        main_symbols=schedule.main_symbols, fallback_symbols=schedule.fallback_symbols,
        topup_symbols=schedule.topup_symbols, total_symbols=total,
        rate=total / params.f, per_iteration=per_it,
        successes=tuple(successes), known=tuple(known),
        exact_successes=tuple(exact) if mode == "exact" else None,
    )


def _trial_worker(args) -> TrialResult:
    return run_one_trial(*args)


def run_trials(params: SystemParams, demand: RequestVector | None = None,
               trials: int = 1, seed: int = 0, mode: str = "accounting",
               codec: str = "auto", jobs: int = 1,
               reconstruct: bool = True) -> TrialStats:
    """Run seeded independent trials; results do not depend on jobs."""
    require_valid(params)
    require_enumerable(params)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if mode not in ("accounting", "exact"):
        raise ValueError(f"mode must be accounting or exact, got {mode!r}")
    if demand is None:
        demand = RequestVector.worst_case(params)
    demand.validate_for(params)
    codec_kind = choose_codec(params, codec)
    if mode == "exact":
        if codec_kind != "real":
            raise ValueError("exact mode needs the real codec (small f)")
        require_exact_fits(params, demand)
    args = [(params, demand, seed, t, mode, codec_kind, reconstruct) for t in range(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_worker, args))
    else:
        results = [run_one_trial(*a) for a in args]
    return TrialStats(params=params, demand=demand, mode=mode, codec_kind=codec_kind,
                      reconstruct=reconstruct, master_seed=seed, trials=results)


def compare_to_theory(stats: TrialStats, tolerance: float,
                      worst_case: bool = False) -> dict:
    """Check mean empirical rate against the closed form at the demand's
    distinct-file count (or the worst case), plus full decode success."""
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    p = stats.params
    n_distinct = None if worst_case else stats.n_distinct
    theory = rate_mds_dec(p.n_files, p.m, p.k, p.r, n_distinct=n_distinct)
    mean = stats.mean_rate_exact
    if theory == 0:
        rel = None if mean == 0 else float("inf")
    else:
        rel = float(abs(mean - theory) / theory)
    ok_rate = (rel is None) or rel <= tolerance
    ok_success = stats.success_fraction == 1.0
    message = ""
    if tolerance == 0 and rel not in (None, 0.0):
        ok_rate = False
        message = ("tolerance 0 cannot be met by a finite-length simulation: "
                   "block sizes are random, so the realized rate fluctuates "
                   f"around the closed form (relative error {rel:.3e})")
    elif not ok_rate:
        message = f"mean rate off by {rel:.3e} relative, tolerance {tolerance:.3e}"
    elif not ok_success:
        message = "some user failed to decode its file"
    return {
        "theory_rate": fraction_str(theory),
        "theory_rate_float": float(theory),
        "mean_rate": fraction_str(mean),
        "mean_rate_float": float(mean),
        "relative_error": rel,
        "tolerance": tolerance,
        "success_fraction": stats.success_fraction,
        "topup_fraction": stats.topup_fraction,
        "distinct_files": "worst-case" if worst_case else stats.n_distinct,
        "passed": bool(ok_rate and ok_success),
        "message": message,
    }
