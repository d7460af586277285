"""The four benchmark workloads: one parameter point per pipeline layer.

Each point was picked because a different layer dominates its trial time;
README.md and BENCHMARK.json give the reason for each.  Every workload uses
the worst-case demand with k_prime = k.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    n_files: int
    k: int
    m: Fraction
    r: Fraction
    f: int
    codec: str  # passed to mdscache.choose_codec
    mode: str   # accounting | exact

    def params(self):
        from mdscache import SystemParams
        return SystemParams(n_files=self.n_files, k_prime=self.k, k=self.k,
                            m=self.m, r=self.r, f=self.f)


WORKLOADS = {w.name: w for w in (
    Workload("placement-bound", 2, 3, Fraction(1), Fraction(2), 100000, "virtual", "accounting"),
    Workload("delivery-bound", 4, 11, Fraction(2), Fraction(2), 4000, "virtual", "accounting"),
    Workload("codec-bound", 2, 3, Fraction(1), Fraction(2), 4096, "auto", "accounting"),
    Workload("verify-exact", 2, 3, Fraction(1), Fraction(2), 128, "real", "exact"),
)}
