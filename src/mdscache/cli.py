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
import json
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction

from .analysis import (best_r, rate_mds_dec, rate_uncoded_cen,
                       rate_uncoded_dec, stop_index)
from .params import (ParamError, RequestVector, SystemParams, as_fraction,
                     fraction_str, require_valid)
from .simulate import compare_to_theory, run_trials


def dec_str(x: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _parse_demand(text: str) -> RequestVector:
    try:
        return RequestVector(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise ParamError(f"demand must be comma separated file ids, got {text!r}") from exc


def _add_point_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="library size (number of files)")
    sub.add_argument("--m", type=str, default=None, help="cache size in files, rational ok")
    sub.add_argument("--k", type=int, default=None, help="active users")
    sub.add_argument("--r", type=str, default=None, help="code expansion factor, rational ok")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with flag defaults; explicit flags win")


def _merged(args: argparse.Namespace, required: tuple[str, ...]) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            merged.update(json.load(fh))
        flags = [key for key in vars(args) if key not in ("command", "fn", "config")]
        for key in merged:
            if key not in flags:
                hint = "".join(f"; did you mean {c!r} (--{c.replace('_', '-')})?"
                               for c in difflib.get_close_matches(key, flags, n=1))
                raise ParamError(f"config key {key!r} is not a flag of {args.command}{hint}")
    for key, value in vars(args).items():
        if value is not None:
            merged[key] = value
    missing = [key for key in required if merged.get(key) is None]
    if missing:
        raise ParamError("missing required parameters: " + ", ".join(
            "--" + key.replace("_", "-") for key in missing))
    return merged


def _cmd_rate(args: argparse.Namespace) -> int:
    opt = _merged(args, ("n", "m", "k", "r"))
    n, k = int(opt["n"]), int(opt["k"])
    m, r = as_fraction(opt["m"]), as_fraction(opt["r"])
    n_distinct = opt.get("distinct")
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
    opt = _merged(args, ("n", "m", "k", "r", "axis", "values"))
    axis = opt["axis"]
    values = [part.strip() for part in str(opt["values"]).split(",") if part.strip()]
    if not values:
        raise ParamError("--values is empty")
    out = open(opt["out"], "w") if opt.get("out") else sys.stdout
    try:
        out.write(f"{axis},coded_prefetch_exact,coded_prefetch,"
                  "uncoded_dec_exact,uncoded_dec,uncoded_cen_exact,uncoded_cen\n")
        for raw in values:
            n, k = int(opt["n"]), int(opt["k"])
            m, r = as_fraction(opt["m"]), as_fraction(opt["r"])
            if axis == "k":
                k = int(raw)
            elif axis == "m":
                m = as_fraction(raw)
            else:
                r = as_fraction(raw)
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


def _build_params(opt: dict) -> SystemParams:
    k = int(opt["k"])
    k_prime = int(opt.get("k_prime") or k)
    params = SystemParams(n_files=int(opt["n"]), k_prime=k_prime, k=k,
                          m=as_fraction(opt["m"]), r=as_fraction(opt["r"]),
                          f=int(opt["f"]))
    require_valid(params)
    return params


def _trial_record(t) -> dict:
    rec = asdict(t)
    rec["successes"] = [bool(x) for x in t.successes]
    if t.exact_successes is not None:
        rec["exact_successes"] = [bool(x) for x in t.exact_successes]
    rec["per_iteration"] = {str(j): int(symbols) for j, symbols in t.per_iteration}
    return rec


def _run_simulate(args: argparse.Namespace, preset: dict | None = None) -> int:
    opt = _merged(args, ())
    if preset:
        for key, value in preset.items():
            opt.setdefault(key, value)
    opt.setdefault("f", 64 if preset else None)
    for key in ("n", "m", "k", "r", "f"):
        if opt.get(key) is None:
            raise ParamError(f"missing required parameter: --{key}")
    params = _build_params(opt)
    demand = _parse_demand(opt["demand"]) if opt.get("demand") else None
    stats = run_trials(
        params,
        demand=demand,
        trials=int(opt.get("trials", 10)),
        seed=int(opt.get("seed", 0)),
        mode=str(opt.get("mode", "accounting")),
        codec=str(opt.get("codec", "auto")),
        jobs=int(opt.get("jobs", 1)),
        reconstruct=not opt.get("no_reconstruct", False),
    )
    comparison = compare_to_theory(stats, float(opt.get("tolerance", 0.02)))
    per_iter: dict[str, float] = {}
    for t in stats.trials:
        for j, symbols in t.per_iteration:
            per_iter[str(j)] = per_iter.get(str(j), 0.0) + symbols / len(stats.trials)
    if stats.mode == "exact":
        flat = [ok for t in stats.trials for ok in t.exact_successes]
        comparison["exact_success_fraction"] = sum(flat) / len(flat)
        comparison["passed"] = bool(comparison["passed"] and all(flat))
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
    if opt.get("out"):
        with open(opt["out"], "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if opt.get("log"):
        with open(opt["log"], "w") as fh:
            for t in stats.trials:
                fh.write(json.dumps(_trial_record(t), sort_keys=True) + "\n")
    status = "PASS" if comparison["passed"] else "FAIL"
    detail = comparison["message"] or (
        f"mean rate {comparison['mean_rate_float']:.6f} vs theory "
        f"{comparison['theory_rate_float']:.6f}, all users decoded")
    print(f"{status}: {detail}", file=sys.stderr)
    return 0 if comparison["passed"] else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _run_simulate(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    # rate concentration is weak at the small f this preset targets; decoding
    # exactness is asserted per trial regardless of the tolerance
    return _run_simulate(args, preset={"mode": "exact", "codec": "real",
                                       "trials": 5, "tolerance": 0.2})


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
    opt = _merged(args, ("n", "m", "k", "grid"))
    grid = [as_fraction(part) for part in str(opt["grid"]).split(",") if part.strip()]
    r, rate = best_r(int(opt["n"]), as_fraction(opt["m"]), int(opt["k"]), grid)
    print(f"r={fraction_str(r)} rate={fraction_str(rate)} ({dec_str(rate)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdscache",
        description="Decentralized coded caching with MDS-coded prefetching: "
                    "closed-form rates and symbol-level simulation.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("rate", help="closed-form rates at one parameter point")
    _add_point_args(sub)
    sub.add_argument("--distinct", type=int, default=None,
                     help="distinct requested files (default: worst case)")
    sub.set_defaults(fn=_cmd_rate)

    sub = subs.add_parser("sweep", help="CSV of rates along one axis")
    _add_point_args(sub)
    sub.add_argument("--axis", choices=("k", "m", "r"), default=None)
    sub.add_argument("--values", type=str, default=None,
                     help="comma separated axis values")
    sub.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    sub.set_defaults(fn=_cmd_sweep)

    sub = subs.add_parser("best-r", help="grid search for the best expansion factor")
    _add_point_args(sub)
    sub.add_argument("--grid", type=str, default=None,
                     help="comma separated candidate r values")
    sub.set_defaults(fn=_cmd_best_r)

    for name, help_text, fn in (
            ("simulate", "seeded Monte Carlo against the closed form", _cmd_simulate),
            ("verify", "simulate preset: real codec, rank-based decode", _cmd_verify)):
        sub = subs.add_parser(name, help=help_text)
        _add_point_args(sub)
        sub.add_argument("--k-prime", dest="k_prime", type=int, default=None,
                         help="provisioned users (default: --k)")
        sub.add_argument("--f", type=int, default=None, help="symbols per file")
        sub.add_argument("--trials", type=int, default=None)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--demand", type=str, default=None,
                         help="comma separated 1-based file ids, one per user")
        sub.add_argument("--mode", choices=("accounting", "exact"), default=None)
        sub.add_argument("--codec", choices=("auto", "real", "virtual"), default=None)
        sub.add_argument("--jobs", type=int, default=None)
        sub.add_argument("--tolerance", type=str, default=None,
                         help="relative rate tolerance (default 0.02)")
        sub.add_argument("--no-reconstruct", dest="no_reconstruct",
                         action="store_const", const=True, default=None,
                         help="broadcast leaderless subsets instead of relying on "
                              "receiver-side reconstruction")
        sub.add_argument("--out", type=str, default=None, help="report JSON path")
        sub.add_argument("--log", type=str, default=None, help="per-trial JSONL path")
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("selftest", help="fast internal consistency checks")
    sub.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:  # ParamError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
