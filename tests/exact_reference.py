"""Dense reference for the exact-mode rank oracle.

``reference_ranks`` is the oracle as it was before it moved to cache
coordinates: one int64 row per cached symbol and per received message or
top-up symbol, n_files * f columns in the default (message) basis, with the
requested file's columns last, row reduced by full Gauss-Jordan.  It returns
(p_other, p_target): the pivots left and right of the requested file's
columns.  Tests check that ``decoding._exact_ranks`` gives the same pair.
"""
from __future__ import annotations

import numpy as np

from mdscache.mds import generator_matrix


def reference_ranks(params, user, cache_view, schedule, codec) -> tuple[int, int]:
    """(p_other, p_target) of the dense observation matrix of `user`."""
    file0 = schedule.demand.zero_based[user]
    f = params.f
    n_files = params.n_files
    gen = generator_matrix(codec)
    # column blocks: all other files first, the requested file last
    order = [nf for nf in range(n_files) if nf != file0] + [file0]
    offset = {nf: i * f for i, nf in enumerate(order)}
    split = (n_files - 1) * f
    rows: list[np.ndarray] = [np.zeros((0, n_files * f), dtype=np.int64)]

    def add_rows(block_rows: np.ndarray, file: int) -> None:
        chunk = np.zeros((block_rows.shape[0], n_files * f), dtype=np.int64)
        chunk[:, offset[file]: offset[file] + f] = block_rows
        rows.append(chunk)

    for nf, (indices, _) in cache_view.items():
        if len(indices):
            add_rows(gen[indices], nf)
    for msg in list(schedule.messages) + list(schedule.topups):
        if msg.length == 0:
            continue
        chunk = np.zeros((msg.length, n_files * f), dtype=np.int64)
        for c in msg.components:
            lc = len(c.indices)
            if lc:
                chunk[:lc, offset[c.file]: offset[c.file] + f] ^= gen[c.indices]
        rows.append(chunk)
    mat = np.concatenate(rows, axis=0)
    return gauss_jordan_pivots(codec.gf, mat, split)


def gauss_jordan_pivots(gf, mat: np.ndarray, split: int) -> tuple[int, int]:
    """Row reduce left to right; pivots left of `split` also give the rank of
    the matrix with the right-hand columns deleted (they sit below the split
    pivots in echelon order)."""
    n_rows, n_cols = mat.shape
    used = np.zeros(n_rows, dtype=bool)
    p_left = p_right = 0
    for col in range(n_cols):
        colvals = mat[:, col]
        cand = np.flatnonzero((colvals != 0) & ~used)
        if cand.size == 0:
            continue
        pr = int(cand[0])
        used[pr] = True
        inv = gf.inv(int(mat[pr, col]))
        mat[pr] = gf.mul_vec(mat[pr], np.int64(inv))
        others = np.flatnonzero(mat[:, col] != 0)
        others = others[others != pr]
        if others.size:
            # the factors are nonzero, and a zero of the pivot row changes
            # nothing, so only its nonzero columns are multiplied out
            nz = np.flatnonzero(mat[pr])
            logs = gf.log[mat[others, col]][:, None] + gf.log[mat[pr, nz]]
            mat[np.ix_(others, nz)] ^= gf.exp[logs]
        if col < split:
            p_left += 1
        else:
            p_right += 1
    return p_left, p_right
