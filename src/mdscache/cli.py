"""Command line front end.

Subcommands:

* rate      closed-form delivery rates for one parameter point
* sweep     CSV of rates along one axis (k, m, or r)
* simulate  seeded Monte Carlo; report JSON plus optional per-trial JSONL
* verify    simulate preset for bit-exact checking (real codec, rank decode)
* selftest  fast internal consistency checks, PASS/FAIL per line

Exit codes: 0 ok / check passed, 1 check failed, 2 bad parameters or usage.
"""
from __future__ import annotations

import argparse
import difflib
import errno
import functools
import json
import os
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction

from .analysis import (best_r, rate_mds_dec, rate_uncoded_cen,
                       rate_uncoded_dec, stop_index)
from .params import (ParamError, RequestVector, SystemParams, as_fraction,
                     fraction_str, require_valid)
from .simulate import check_tolerance, compare_to_theory, run_trials


def dec_str(x: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _parse_demand(text: str) -> RequestVector:
    try:
        return RequestVector(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise ParamError(f"demand must be comma separated file ids, got {text!r}") from exc


def _rational(text: str) -> Fraction:
    """``as_fraction`` as an argparse type, so a rejected value's error says why."""
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_point_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="library size (number of files)")
    sub.add_argument("--m", type=_rational, default=None,
                     help="cache size in files, rational ok")
    sub.add_argument("--k", type=int, default=None, help="active users")
    sub.add_argument("--r", type=_rational, default=None,
                     help="code expansion factor, rational ok")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with flag defaults; explicit flags win")


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The ``--flag=value`` tokens a ``--config`` file stands for.

    Each value is parsed later as the flag's own text would be; the ``=`` form
    keeps a value starting with ``-`` from reading as a flag.
    """
    with open(args.config) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ParamError(f"config file {args.config} must hold a JSON object of flag "
                         f"values, not a {type(loaded).__name__}")
    flags = [key for key in vars(args) if key not in ("command", "fn", "config")]
    tokens = []
    for key, value in loaded.items():
        if key not in flags:
            hint = "".join(f"; did you mean {c!r} (--{c.replace('_', '-')})?"
                           for c in difflib.get_close_matches(key, flags, n=1))
            raise ParamError(f"config key {key!r} is not a flag of {args.command}{hint}")
        flag = "--" + key.replace("_", "-")
        switch = isinstance(getattr(args, key), bool)  # only a switch parses to a bool
        if value is None or isinstance(value, (list, dict)) or isinstance(value, bool) != switch:
            want = "true or false" if switch else "a number or a string"
            raise ParamError(f"config key {key!r} ({flag}) takes {want}, "
                             f"not {json.dumps(value)}")
        if not switch:
            tokens.append(f"{flag}={value}")
        elif value:
            tokens.append(flag)
    return tokens


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise ParamError("missing required parameters: " + ", ".join(
            "--" + name.replace("_", "-") for name in missing))


def _cmd_rate(args: argparse.Namespace) -> int:
    _require(args, "n", "m", "k", "r")
    n, m, k, r, n_distinct = args.n, args.m, args.k, args.r, args.distinct
    coded = rate_mds_dec(n, m, k, r, n_distinct=n_distinct)
    unc_dec = rate_uncoded_dec(n, m, k)
    unc_cen = rate_uncoded_cen(n, m, k)
    s = stop_index(n, m, k, r)
    print(f"n_files={n} m={fraction_str(m)} k={k} r={fraction_str(r)} "
          f"q={fraction_str(m / (r * n))} stop_index={s} "
          f"distinct={'worst-case' if n_distinct is None else n_distinct}")
    rows = [
        (f"coded-prefetch (r={fraction_str(r)})", coded),
        ("uncoded decentralized", unc_dec),
        ("uncoded centralized", unc_cen),
    ]
    width = max(len(name) for name, _ in rows)
    ewidth = max(len(fraction_str(v)) for _, v in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {fraction_str(value):>{ewidth}}  {dec_str(value)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "n", "m", "k", "r", "axis", "values")
    axis = args.axis
    values = [part.strip() for part in args.values.split(",") if part.strip()]
    if not values:
        raise ParamError("--values is empty")
    convert = int if axis == "k" else as_fraction
    points = [(raw, convert(raw)) for raw in values]  # a bad value fails before any output
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write(f"{axis},coded_prefetch_exact,coded_prefetch,"
                  "uncoded_dec_exact,uncoded_dec,uncoded_cen_exact,uncoded_cen\n")
        for raw, value in points:
            n, m, k, r = args.n, args.m, args.k, args.r
            if axis == "k":
                k = value
            elif axis == "m":
                m = value
            else:
                r = value
            try:
                coded = rate_mds_dec(n, m, k, r)
                unc_dec = rate_uncoded_dec(n, m, k)
                unc_cen = rate_uncoded_cen(n, m, k)
            except (ParamError, ValueError) as exc:
                print(f"warning: skipping {axis}={raw}: {exc}", file=sys.stderr)
                out.write(f"{raw},,,,,,\n")
                continue
            out.write(f"{raw},{fraction_str(coded)},{dec_str(coded)},"
                      f"{fraction_str(unc_dec)},{dec_str(unc_dec)},"
                      f"{fraction_str(unc_cen)},{dec_str(unc_cen)}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _build_params(args: argparse.Namespace) -> SystemParams:
    k_prime = args.k if args.k_prime is None else args.k_prime
    params = SystemParams(n_files=args.n, k_prime=k_prime, k=args.k, m=args.m, r=args.r,
                          f=args.f)
    require_valid(params)
    return params


def _trial_record(t) -> dict:
    rec = asdict(t)
    rec["successes"] = [bool(x) for x in t.successes]
    if t.exact_successes is not None:
        rec["exact_successes"] = [bool(x) for x in t.exact_successes]
    rec["per_iteration"] = {str(j): int(symbols) for j, symbols in t.per_iteration}
    return rec


def _require_writable(path: str) -> None:
    """Raise the error ``open(path, "w")`` would, without creating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _run_simulate(args: argparse.Namespace) -> int:
    _require(args, "n", "m", "k", "r", "f")
    params = _build_params(args)
    demand = _parse_demand(args.demand) if args.demand else None
    tolerance = check_tolerance(args.tolerance)
    for path in (args.out, args.log):  # before the trials, so a bad path fails at once
        if path:
            _require_writable(path)
    stats = run_trials(params, demand=demand, trials=args.trials, seed=args.seed,
                       mode=args.mode, codec=args.codec, jobs=args.jobs,
                       reconstruct=not args.no_reconstruct)
    comparison = compare_to_theory(stats, tolerance)
    per_iter: dict[str, float] = {}
    for t in stats.trials:
        for j, symbols in t.per_iteration:
            per_iter[str(j)] = per_iter.get(str(j), 0.0) + symbols / len(stats.trials)
    report = {
        "params": json.loads(stats.params.to_json()),
        "demand": list(stats.demand.files),
        "settings": {
            "trials": len(stats.trials), "seed": stats.master_seed,
            "mode": stats.mode, "codec": stats.codec_kind,
            "reconstruct": stats.reconstruct,
        },
        "aggregate": {
            "mean_rate": fraction_str(stats.mean_rate_exact),
            "mean_rate_float": stats.mean_rate,
            "std_rate": stats.std_rate,
            "success_fraction": stats.success_fraction,
            "topup_fraction": stats.topup_fraction,
            "mean_symbols_per_subset_size": per_iter,
        },
        "comparison": comparison,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.log:
        with open(args.log, "w") as fh:
            for t in stats.trials:
                fh.write(json.dumps(_trial_record(t), sort_keys=True) + "\n")
    status = "PASS" if comparison["passed"] else "FAIL"
    detail = comparison["message"] or (
        f"mean rate {comparison['mean_rate_float']:.6f} vs theory "
        f"{comparison['theory_rate_float']:.6f}, all users decoded")
    print(f"{status}: {detail}", file=sys.stderr)
    return 0 if comparison["passed"] else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    del args
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")

    def golden_rates() -> None:
        cases = [
            ((2, 1, 2, 1), Fraction(3, 4)), ((2, 1, 2, 2), Fraction(5, 8)),
            ((2, 1, 2, 3), Fraction(7, 12)), ((2, 1, 2, 4), Fraction(9, 16)),
            ((2, 1, 3, 2), Fraction(45, 64)),
            ((2, 1, 3, Fraction(3, 2)), Fraction(25, 36)),
        ]
        for (n, m, k, r), want in cases:
            got = rate_mds_dec(n, m, k, r)
            assert got == want, f"rate({n},{m},{k},{r}) = {got}, want {want}"

    def r_one_matches_uncoded() -> None:
        for n, m, k in [(2, 1, 2), (5, 2, 4), (20, 5, 8), (10, Fraction(5, 2), 3)]:
            assert rate_mds_dec(n, m, k, 1) == rate_uncoded_dec(n, m, k)

    def field_axioms() -> None:
        from .gf import field
        for width in (8, 16):
            problems = field(width).verify()
            assert not problems, problems[0]

    def corrupted_field_detected() -> None:
        from .gf import GF2
        bad = GF2(8)
        bad.exp.flags.writeable = True  # a private instance; the shared tables stay read-only
        bad.exp[5] ^= 1
        assert bad.verify(), "corrupted table passed verification"

    def codec_roundtrip() -> None:
        import numpy as np
        from .mds import CodecConfig, mds_decode, mds_encode
        config = CodecConfig(16, 32)
        rng = np.random.default_rng(7)
        data = rng.integers(0, 65536, size=16).astype(np.int64)
        coded = mds_encode(data, config)
        keep = rng.permutation(32)[:16]
        got = mds_decode([(int(i), int(coded[i])) for i in keep], config)
        assert np.array_equal(got, data)

    def plan_matches_closed_form() -> None:
        from .delivery import plan_schedule
        params = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(1),
                              r=Fraction(2), f=64)
        plan = plan_schedule(params, RequestVector.worst_case(params))
        want = rate_mds_dec(2, 1, 3, 2) * 64
        assert plan.total == want, f"{plan.total} != {want}"

    def placement_deterministic() -> None:
        from .placement import prefetch
        params = SystemParams(n_files=3, k_prime=4, k=4, m=Fraction(1),
                              r=Fraction(2), f=96)
        assert prefetch(params, 42) == prefetch(params, 42)
        assert prefetch(params, 42) != prefetch(params, 43)

    check("golden closed-form rates", golden_rates)
    check("r=1 reduces to the uncoded scheme", r_one_matches_uncoded)
    check("field axioms (8 and 16 bit)", field_axioms)
    check("corrupted field table is caught", corrupted_field_detected)
    check("codec roundtrip from arbitrary 16-of-32", codec_roundtrip)
    check("expected-size plan equals the closed form", plan_matches_closed_form)
    check("placement is seed deterministic", placement_deterministic)
    return 1 if failures else 0


def _cmd_best_r(args: argparse.Namespace) -> int:
    _require(args, "n", "m", "k", "grid")
    grid = [as_fraction(part) for part in args.grid.split(",") if part.strip()]
    r, rate = best_r(args.n, args.m, args.k, grid)
    print(f"r={fraction_str(r)} rate={fraction_str(rate)} ({dec_str(rate)})")
    return 0


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdscache", exit_on_error=exit_on_error,
        description="Decentralized coded caching with MDS-coded prefetching: "
                    "closed-form rates and symbol-level simulation.")
    subs = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subs.add_parser, exit_on_error=exit_on_error)

    sub = add_parser("rate", help="closed-form rates at one parameter point")
    _add_point_args(sub)
    sub.add_argument("--distinct", type=int, default=None,
                     help="distinct requested files (default: worst case)")
    sub.set_defaults(fn=_cmd_rate)

    sub = add_parser("sweep", help="CSV of rates along one axis")
    _add_point_args(sub)
    sub.add_argument("--axis", choices=("k", "m", "r"), default=None)
    sub.add_argument("--values", type=str, default=None,
                     help="comma separated axis values")
    sub.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    sub.set_defaults(fn=_cmd_sweep)

    sub = add_parser("best-r", help="grid search for the best expansion factor")
    _add_point_args(sub)
    sub.add_argument("--grid", type=str, default=None,
                     help="comma separated candidate r values")
    sub.set_defaults(fn=_cmd_best_r)

    for name, help_text in (
            ("simulate", "seeded Monte Carlo against the closed form"),
            ("verify", "simulate preset: real codec, rank-based decode")):
        sub = add_parser(name, help=help_text)
        _add_point_args(sub)
        sub.add_argument("--k-prime", dest="k_prime", type=int, default=None,
                         help="provisioned users (default: --k)")
        sub.add_argument("--f", type=int, default=None, help="symbols per file")
        sub.add_argument("--trials", type=int, default=10)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--demand", type=str, default=None,
                         help="comma separated 1-based file ids, one per user")
        sub.add_argument("--mode", choices=("accounting", "exact"), default="accounting")
        sub.add_argument("--codec", choices=("auto", "real", "virtual"), default="auto")
        sub.add_argument("--jobs", type=int, default=1)
        sub.add_argument("--tolerance", type=str, default="0.02",
                         help="relative rate tolerance (default %(default)s)")
        sub.add_argument("--no-reconstruct", dest="no_reconstruct", action="store_true",
                         help="broadcast leaderless subsets instead of relying on "
                              "receiver-side reconstruction")
        sub.add_argument("--out", type=str, default=None, help="report JSON path")
        sub.add_argument("--log", type=str, default=None, help="per-trial JSONL path")
        sub.set_defaults(fn=_run_simulate)
        if name == "verify":
            # rate concentration is weak at the small f this preset targets; decoding
            # exactness is asserted per trial regardless of the tolerance
            sub.set_defaults(mode="exact", codec="real", trials=5, tolerance="0.2", f=64)

    sub = add_parser("selftest", help="fast internal consistency checks")
    sub.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config values go right after the subcommand, so explicit flags win
            at = argv.index(args.command) + 1
            try:
                args = build_parser(exit_on_error=False).parse_args(
                    argv[:at] + _config_argv(args) + argv[at:])
            except argparse.ArgumentError as exc:
                raise ParamError(f"config file {args.config}: {exc}") from None
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ParamError and unreadable or unwritable paths included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
