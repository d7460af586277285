"""Pure helpers of the benchmark: the tail-percentile rule, span self time,
and work counts computed from a call's arguments."""
from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_percentile(samples) -> tuple[float, int, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of N sorted samples
    is the one at rank ceil(p*N/100).  Returns (value, p, N).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n
    raise ValueError(f"need at least {TAIL_BEYOND + 1} samples for a tail percentile, got {n}")


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def symbols_sampled(params) -> int:
    """Coded symbol indices one prefetch draws: every provisioned user, every file."""
    return params.k_prime * params.n_files * params.cached_per_file


def encode_terms(config) -> int:
    """Field products one mds_encode performs: f terms for each of the n - f parity symbols."""
    return config.f * (config.n - config.f)


def exact_matrix_bytes(params, cache_view, schedule) -> int:
    """Size of the dense int64 observation matrix the rank oracle builds for one user:
    one row per cached symbol and per received message symbol, n_files*f columns."""
    rows = sum(len(indices) for indices, _ in cache_view.values())
    rows += sum(m.length for m in list(schedule.messages) + list(schedule.topups))
    return rows * params.n_files * params.f * 8
