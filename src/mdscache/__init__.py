"""Decentralized coded caching with MDS-coded prefetching.

Symbol-level placement and delivery, exact closed-form rates, and seeded
Monte Carlo simulation showing that every user decodes its request at the
predicted traffic load.
"""
from .analysis import (accumulated_share, best_r, comb0, rate_mds_dec,
                       rate_uncoded_cen, rate_uncoded_dec, stop_index)
from .decoding import DecodeResult, decode_user, synthesize_skipped
from .delivery import (DeliverySchedule, SchedulePlan, deliver, leaders,
                       plan_schedule)
from .gf import GF2, field
from .mds import (CodecConfig, InsufficientSymbolsError, generator_matrix,
                  mds_decode, mds_encode)
from .params import (CacheContents, ParamError, RequestVector,
                     SubfilePartition, SystemParams, as_fraction,
                     fraction_str, suggest_feasible_f, validate)
from .placement import (derive_seed, expected_subfile_size,
                        partition_subfiles, prefetch,
                        sample_without_replacement, splitmix64)
from .simulate import (TrialResult, TrialStats, choose_codec,
                       compare_to_theory, pseudo_symbols, run_one_trial,
                       run_trials)

__version__ = "0.1.0"

__all__ = [
    "GF2", "field",
    "CodecConfig", "InsufficientSymbolsError", "mds_encode", "mds_decode",
    "generator_matrix",
    "SystemParams", "RequestVector", "CacheContents", "SubfilePartition",
    "ParamError", "as_fraction", "fraction_str", "suggest_feasible_f",
    "validate",
    "prefetch", "partition_subfiles", "expected_subfile_size",
    "sample_without_replacement", "derive_seed", "splitmix64",
    "accumulated_share", "stop_index", "rate_mds_dec", "rate_uncoded_dec",
    "rate_uncoded_cen", "best_r", "comb0",
    "DeliverySchedule", "SchedulePlan", "deliver", "plan_schedule", "leaders",
    "DecodeResult", "decode_user", "synthesize_skipped",
    "TrialResult", "TrialStats", "run_one_trial", "run_trials",
    "compare_to_theory", "choose_codec", "pseudo_symbols",
    "__version__",
]
