"""mdscache benchmark: seeded Monte Carlo trials, timed one at a time in a closed loop.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One client, jobs=1: each trial is one call of the public ``run_one_trial``,
issued only after the previous one has returned, timed from outside and
checked for correctness.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced for half the time and traced for the other half
and reports the per-layer metrics (see README.md).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every output is correct,
1 when any is not (the report is still printed), 2 when the mdscache sources
are missing or a workload could not be run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

from metrics import TAIL_BEYOND, tail_percentile
from setup_probe import one_time_setup
from spans import Tracer, instrumented, layer_metrics, layer_shares, stage_shares
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5                # fresh processes per run; setup_s is their median
MIN_TRIALS = TAIL_BEYOND + 1    # untraced trials; rate_over_theory uses exactly the first ones
COUNT_TRIALS = 3                # traced trials the per-layer counts are averaged over

END_TO_END_UNITS = {
    "trial_s_p50": "s", "trial_s_tail": "s", "trials_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "rate_over_theory": "ratio",
}
PER_LAYER_UNITS = {
    "placement.prefetch_s": "s", "placement.partition_s": "s",
    "placement.symbols_sampled": "symbols", "placement.partition_blocks": "count",
    "delivery.deliver_self_s": "s", "delivery.messages": "count",
    "delivery.main_symbols": "symbols", "delivery.topup_symbols": "symbols",
    "delivery.topup_share": "ratio", "delivery.rounding_overshoot": "symbols",
    "delivery.unsolved_skips": "count",
    "decoding.synthesize_s": "s", "decoding.synthesize_calls": "count",
    "decoding.virtual_messages": "count",
    "decoding.strip_topup_s": "s", "decoding.strip_decode_s": "s",
    "decoding.strip_calls": "count", "decoding.knows_all_calls": "count",
    "decoding.accounting_self_s": "s",
    "decoding.exact_s": "s", "decoding.exact_matrix_mb": "MB",
    "gf.mul_vec_calls": "count", "gf.mul_vec_s": "s",
    "mds.encode_s": "s", "mds.decode_s": "s", "mds.encode_terms": "count",
    "mds.terms_per_s": "1/s",
    "simulate.trial_self_s": "s",
    "trace_overhead": "ratio", "decode_fail_share": "ratio",
}


class SourcesMissing(Exception):
    pass


def import_package() -> None:
    """Import mdscache from this checkout's src/, never from an installed copy."""
    if not (SRC / "mdscache" / "__init__.py").is_file():
        raise SourcesMissing(f"no mdscache sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mdscache
    if Path(mdscache.__file__).resolve().parent != (SRC / "mdscache").resolve():
        raise SourcesMissing(f"imported mdscache from {mdscache.__file__}, not from {SRC}")


@dataclass
class Point:
    """A workload resolved against the package: parameters, demand, codec lane, closed form."""

    wl: object
    params: object
    demand: object
    codec_kind: str
    theory: Fraction

    @staticmethod
    def of(wl) -> "Point":
        from mdscache import RequestVector, rate_mds_dec
        params = wl.params()
        demand = RequestVector.worst_case(params)
        codec_kind = one_time_setup(wl)
        theory = rate_mds_dec(params.n_files, params.m, params.k, params.r,
                              n_distinct=demand.n_distinct)
        return Point(wl, params, demand, codec_kind, theory)


@dataclass
class Tally:
    """Per-(user, trial) decode outcomes and every problem found, in trial order."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def add(self, k: int, t: int, result, failed: int, problems: list[str]) -> None:
        self.attempted += k
        self.failed += failed
        self.problems.extend(problems)
        self.results[t] = result


def check_result(point: Point, t: int, res) -> tuple[int, list[str]]:
    """Failed users of one trial, and every way its output is wrong."""
    p = point.params
    problems = []
    if (res.trial, res.demand, res.codec_kind) != (t, point.demand.files, point.codec_kind):
        problems.append(f"trial {t}: result labelled trial {res.trial}, demand {res.demand}, "
                        f"codec {res.codec_kind}")
    if res.total_symbols != res.main_symbols + res.fallback_symbols + res.topup_symbols:
        problems.append(f"trial {t}: total_symbols {res.total_symbols} is not the sum of its parts")
    exact = res.exact_successes
    if len(res.successes) != p.k or (point.wl.mode == "exact" and (exact is None or len(exact) != p.k)):
        problems.append(f"trial {t}: expected one decode outcome per user ({p.k})")
        return p.k, problems
    failed = 0
    for u in range(p.k):
        ok = res.successes[u]
        if not ok:
            problems.append(f"trial {t}: user {u} failed to decode (knows {res.known[u]} of {p.f})")
        if point.wl.mode == "exact":
            if exact[u] != res.successes[u]:
                problems.append(f"trial {t}: user {u}: accounting says {res.successes[u]}, "
                                f"the rank oracle says {exact[u]}")
            ok = ok and exact[u]
        failed += not ok
    return failed, problems


def closed_loop(point: Point, seed: int, seconds: float, min_trials: int,
                tracer: Tracer | None = None) -> tuple[list[float], float, Tally]:
    """Issue trials 0, 1, ... back to back for `seconds` (and at least `min_trials`).

    Returns the per-trial times, the loop's wall time and the checked outcomes.
    A trial that raises counts all its users as failed; the loop goes on.
    """
    from mdscache import simulate
    tally = Tally()
    times: list[float] = []
    start = perf_counter()
    deadline = start + seconds
    t = 0
    while len(times) < min_trials or perf_counter() < deadline:
        if tracer is not None:
            tracer.trial = t
        t0 = perf_counter()
        try:
            res = simulate.run_one_trial(point.params, point.demand, seed, t,
                                         point.wl.mode, point.codec_kind)
        except Exception:  # an incorrect output, reported like any other
            times.append(perf_counter() - t0)
            tally.add(point.params.k, t, None, point.params.k,
                      [f"trial {t} raised:\n{traceback.format_exc()}"])
        else:
            times.append(perf_counter() - t0)
            tally.add(point.params.k, t, res, *check_result(point, t, res))
        t += 1
    return times, perf_counter() - start, tally


def rate_over_theory(point: Point, tally: Tally) -> float:
    """Mean delivered symbols / (trials*f) over the first MIN_TRIALS trials, over the closed form."""
    done = [tally.results[t] for t in range(MIN_TRIALS) if tally.results.get(t) is not None]
    if not done:
        return 0.0
    rate = Fraction(sum(r.total_symbols for r in done), len(done) * point.params.f)
    return float(rate / point.theory)


def probe_setup(wl) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), wl.name], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def plain_run(wl, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    setup_s = median(probe_setup(wl) for _ in range(SETUP_PROBES))
    point = Point.of(wl)
    times, wall, tally = closed_loop(point, seed, seconds, MIN_TRIALS)
    tail, pct, n = tail_percentile(times)
    metrics = {
        "trial_s_p50": median(times),
        "trial_s_tail": tail,
        "trials_per_s": len(times) / wall,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "rate_over_theory": rate_over_theory(point, tally),
    }
    notes = [f"trial_s_tail is p{pct} of {n} trials ({n - math.ceil(pct * n / 100)} beyond it)",
             f"rate_over_theory over trials 0..{MIN_TRIALS - 1}, closed form "
             f"{point.theory} = {float(point.theory):.6f}",
             f"decode_fail_share {tally.failed}/{tally.attempted}"]
    return metrics, tally, notes


def traced_run(wl, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    point = Point.of(wl)
    base_times, _, base = closed_loop(point, seed, seconds / 2, COUNT_TRIALS)
    tracer = Tracer()
    with instrumented(tracer):
        traced_times, _, traced = closed_loop(point, seed, seconds / 2, COUNT_TRIALS, tracer)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)

    tally = Tally(base.attempted + traced.attempted, base.failed + traced.failed,
                  base.problems + traced.problems)
    for t in sorted(base.results.keys() & traced.results.keys()):
        if base.results[t] != traced.results[t]:
            tally.problems.append(f"trial {t}: the traced run gave a different TrialResult")
    metrics = layer_metrics(tracer, range(COUNT_TRIALS))
    metrics["trace_overhead"] = median(traced_times) / median(base_times)
    metrics["decode_fail_share"] = tally.failed / tally.attempted
    stages = ", ".join(f"{k} {v:.1%}" for k, v in stage_shares(tracer).items())
    layers = ", ".join(f"{k} {v:.1%}" for k, v in layer_shares(tracer).items())
    notes = [f"{len(base_times)} untraced and {len(traced_times)} traced trials; "
             f"counts are means over traced trials 0..{COUNT_TRIALS - 1}",
             f"stage shares (inclusive): {stages}",
             f"layer self-time shares: {layers}",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, tally, notes


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    import numpy
    print(f"workload {wl.name}: n={wl.n_files} k={wl.k} m={wl.m} r={wl.r} f={wl.f} "
          f"codec={wl.codec} mode={wl.mode} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__}")
    if args.trace:
        metrics, tally, notes = traced_run(wl, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, tally, notes = plain_run(wl, args.seed, args.seconds)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for problem in tally.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined report at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no report (exit {proc.returncode})", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for metric, value in report["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        import_package()
    except SourcesMissing as exc:
        print(f"error: {exc}; run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
