"""Spans and counts recorded around the calls into each mdscache layer.

``instrumented(tracer)`` rebinds the public functions of placement, delivery,
decoding, mds, gf and simulate at the attribute where the pipeline looks them
up (``mdscache.simulate.prefetch``, ``mdscache.delivery.strip_fixpoint``, ...)
and restores the originals on exit.  The program itself is unchanged: every
wrapper returns exactly what the wrapped function returned.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from time import perf_counter

from metrics import encode_terms, exact_matrix_bytes, self_times, symbols_sampled


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None


class Tracer:
    """In-memory spans plus per-trial counts; written out once the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int | None, Counter] = {}
        self._open: list[Span] = []
        self.trial = None

    @property
    def trial(self) -> int | None:
        return self._trial

    @trial.setter
    def trial(self, t: int | None) -> None:
        """Attribute the spans and counts that follow to trial t."""
        self._trial = t
        self.current = self.counts.setdefault(t, Counter())

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent, self._trial)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    def count(self, name: str, n=1) -> None:
        self.current[name] += n

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
            for trial, counts in sorted(self.counts.items(), key=lambda kv: (kv[0] is None, kv[0])):
                fh.write(json.dumps({"trial": trial, "counts": dict(counts)}, default=str) + "\n")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_prefetch(tr, args, kwargs, out):
    tr.count("placement.symbols_sampled", symbols_sampled(args[0]))


def _count_partition(tr, args, kwargs, out):
    tr.count("placement.partition_blocks", len(out.blocks))


def _count_deliver(tr, args, kwargs, out):
    tr.count("delivery.messages", len(out.messages))
    tr.count("delivery.main_symbols", out.main_symbols)
    tr.count("delivery.topup_symbols", out.topup_symbols)
    tr.count("delivery.total_symbols", out.total_symbols)
    tr.count("delivery.rounding_overshoot", out.rounding_overshoot)
    tr.count("delivery.unsolved_skips", len(out.unsolved_skips))


def _count_synthesize(tr, args, kwargs, out):
    tr.count("decoding.synthesize_calls")
    tr.count("decoding.virtual_messages", len(out[0]))


def _count_strip(tr, args, kwargs, out):
    tr.count("decoding.strip_calls")


def _count_encode(tr, args, kwargs, out):
    tr.count("mds.encode_terms", encode_terms(_arg(args, kwargs, 1, "config")))


def _count_mul_vec(tr, args, kwargs, out):
    tr.count("gf.mul_vec_calls")


def _timed(tr: Tracer, fn, name: str, count=None):
    def wrapper(*args, **kwargs):
        span = tr.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end(span)
        if count is not None:
            count(tr, args, kwargs, out)
        return out
    return wrapper


def _timed_decode(tr: Tracer, fn):
    """decode_user, with the span named by mode: accounting and exact are different work."""
    def wrapper(*args, **kwargs):
        mode = _arg(args, kwargs, 4, "mode", "accounting")
        span = tr.begin(f"decoding.decode_user.{mode}")
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end(span)
        if mode == "exact":
            tr.count("decoding.exact_decodes")
            tr.count("decoding.exact_matrix_bytes", exact_matrix_bytes(args[0], args[2], args[3]))
        return out
    return wrapper


def _counted(tr: Tracer, fn, name: str):
    """Count-only wrapper for calls too frequent and too small to time one by one."""
    def wrapper(*args, **kwargs):
        tr.current[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrumented(tr: Tracer):
    """Rebind each layer's entry points to recording wrappers for the block's duration."""
    from mdscache import decoding, delivery, gf, mds, simulate

    def timed(name, count=None):
        return lambda fn: _timed(tr, fn, name, count)

    sites = [
        (simulate, "run_one_trial", timed("simulate.run_one_trial")),
        (simulate, "prefetch", timed("placement.prefetch", _count_prefetch)),
        (delivery, "partition_subfiles", timed("placement.partition_subfiles", _count_partition)),
        (simulate, "deliver", timed("delivery.deliver", _count_deliver)),
        (delivery, "synthesize_skipped", timed("decoding.synthesize_skipped", _count_synthesize)),
        (decoding, "synthesize_skipped", timed("decoding.synthesize_skipped", _count_synthesize)),
        # the caller is known from the rebinding site: delivery's top-up pass or decode
        (delivery, "strip_fixpoint", timed("decoding.strip_fixpoint.topup", _count_strip)),
        (decoding, "strip_fixpoint", timed("decoding.strip_fixpoint.decode", _count_strip)),
        (simulate, "decode_user", lambda fn: _timed_decode(tr, fn)),
        (decoding.UserKnowledge, "knows_all", lambda fn: _counted(tr, fn, "decoding.knows_all_calls")),
        (simulate, "mds_encode", timed("mds.mds_encode", _count_encode)),
        # generator_matrix (exact decode) encodes unit vectors through this one
        (mds, "mds_encode", timed("mds.mds_encode", _count_encode)),
        (decoding, "mds_decode", timed("mds.mds_decode")),
        (decoding, "generator_matrix", timed("mds.generator_matrix")),
        (gf.GF2, "mul_vec", timed("gf.mul_vec", _count_mul_vec)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
    try:
        for owner, attr, wrap in sites:
            setattr(owner, attr, wrap(getattr(owner, attr)))
        yield tr
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# per-layer time metrics: (metric, span name, "total" or "self"), median per trial
TIME_METRICS = [
    ("placement.prefetch_s", "placement.prefetch", "total"),
    ("placement.partition_s", "placement.partition_subfiles", "total"),
    ("delivery.deliver_self_s", "delivery.deliver", "self"),
    ("decoding.synthesize_s", "decoding.synthesize_skipped", "total"),
    ("decoding.strip_topup_s", "decoding.strip_fixpoint.topup", "total"),
    ("decoding.strip_decode_s", "decoding.strip_fixpoint.decode", "total"),
    ("decoding.accounting_self_s", "decoding.decode_user.accounting", "self"),
    ("decoding.exact_s", "decoding.decode_user.exact", "total"),
    ("gf.mul_vec_s", "gf.mul_vec", "total"),
    ("mds.encode_s", "mds.mds_encode", "total"),
    ("mds.decode_s", "mds.mds_decode", "total"),
    ("simulate.trial_self_s", "simulate.run_one_trial", "self"),
]

# per-layer counts, mean per trial over a fixed set of trials
COUNT_METRICS = [
    "placement.symbols_sampled", "placement.partition_blocks",
    "delivery.messages", "delivery.main_symbols", "delivery.topup_symbols",
    "delivery.rounding_overshoot", "delivery.unsolved_skips",
    "decoding.synthesize_calls", "decoding.virtual_messages",
    "decoding.strip_calls", "decoding.knows_all_calls",
    "gf.mul_vec_calls", "mds.encode_terms",
]


def per_trial_durations(tr: Tracer) -> dict[int, dict[tuple[str, str], float]]:
    """Trial -> {(span name, "total" | "self"): seconds summed over that trial's spans}."""
    selfs = self_times(tr.spans)
    out: dict[int, dict[tuple[str, str], float]] = {}
    for s in tr.spans:
        d = out.setdefault(s.trial, {})
        d[(s.name, "total")] = d.get((s.name, "total"), 0.0) + (s.end - s.start)
        d[(s.name, "self")] = d.get((s.name, "self"), 0.0) + selfs[s.id]
    return out


def layer_metrics(tr: Tracer, count_trials) -> dict[str, float]:
    """Every per-layer metric: times as medians over all traced trials, counts
    as means over ``count_trials`` so that they depend on the seed only."""
    durations = per_trial_durations(tr)
    trials = sorted(t for t in durations if t is not None)
    out = {name: median(durations[t].get((span, kind), 0.0) for t in trials)
           for name, span, kind in TIME_METRICS}
    total = Counter()
    for t in count_trials:
        total.update(tr.counts.get(t, Counter()))
    n = len(count_trials)
    for name in COUNT_METRICS:
        out[name] = float(total[name]) / n
    out["delivery.topup_share"] = (float(total["delivery.topup_symbols"])
                                   / float(total["delivery.total_symbols"] or 1))
    out["decoding.exact_matrix_mb"] = (total["decoding.exact_matrix_bytes"]
                                       / (total["decoding.exact_decodes"] or 1) / 1e6)
    terms = sum(tr.counts.get(t, Counter())["mds.encode_terms"] for t in trials)
    enc_s = sum(durations[t].get(("mds.mds_encode", "total"), 0.0) for t in trials)
    out["mds.terms_per_s"] = terms / enc_s if enc_s > 0 else 0.0
    return out


def layer_shares(tr: Tracer) -> dict[str, float]:
    """Share of all traced trial time spent in each layer's own code (self time)."""
    selfs = self_times(tr.spans)
    by_layer: Counter = Counter()
    for s in tr.spans:
        by_layer[s.name.split(".")[0]] += selfs[s.id]
    whole = sum(s.end - s.start for s in tr.spans if s.parent is None)
    return {layer: t / whole for layer, t in by_layer.most_common()}


def stage_shares(tr: Tracer) -> dict[str, float]:
    """Share of traced trial time in each direct child of run_one_trial, children included."""
    roots = {s.id for s in tr.spans if s.parent is None}
    by_stage: Counter = Counter()
    for s in tr.spans:
        if s.parent in roots:
            by_stage[s.name] += s.end - s.start
    whole = sum(s.end - s.start for s in tr.spans if s.parent is None)
    by_stage["simulate.run_one_trial (self)"] = whole - sum(by_stage.values())
    return {name: t / whole for name, t in by_stage.most_common()}
