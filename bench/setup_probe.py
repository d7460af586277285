"""Time, in a fresh interpreter, the one-time work a run pays before its first trial.

Usage: python3 bench/setup_probe.py <workload>   (with the package's src/ on PYTHONPATH)
Prints one JSON object: {"setup_s": seconds}.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

from workloads import WORKLOADS


def one_time_setup(wl) -> str:
    """Build the GF(2^16) tables and, for the real codec, fill the codec weights
    cache with one throwaway encode at the workload's f.  Returns the codec lane."""
    import mdscache

    mdscache.field(16)
    params = wl.params()
    codec_kind = mdscache.choose_codec(params, wl.codec)
    if codec_kind == "real":
        config = mdscache.CodecConfig.from_expansion(params.f, params.r)
        mdscache.mds_encode(mdscache.pseudo_symbols(0, params.f, config.gf.order - 1), config)
    return codec_kind


def main() -> None:
    wl = WORKLOADS[sys.argv[1]]
    t0 = perf_counter()
    one_time_setup(wl)  # imports mdscache, and with it numpy
    print(json.dumps({"setup_s": perf_counter() - t0}))


if __name__ == "__main__":
    main()
