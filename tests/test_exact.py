"""Exact-mode rank oracle: the cache-coordinate system against the dense reference."""
import copy
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_reference import gauss_jordan_pivots, reference_ranks
from mdscache import decoding
from mdscache.decoding import (_decode_exact, _exact_ranks, _peel_then_eliminate,
                               _pivot_counts, decode_user, synthesize_skipped)
from mdscache.delivery import deliver
from mdscache.gf import field
from mdscache.mds import CodecConfig, mds_encode
from mdscache.params import ParamError, RequestVector, SystemParams
from mdscache.placement import derive_seed, prefetch
from mdscache.simulate import pseudo_symbols, run_trials
from test_simulate import small_feasible_points


def delivered(params, demand, seed):
    """(cache, coded files, schedule, codec) of one real-codec delivery."""
    config = CodecConfig.from_expansion(params.f, params.r)
    cache = prefetch(params, derive_seed(seed, 1))
    coded = {nf: mds_encode(pseudo_symbols(derive_seed(seed, 2, nf), params.f), config)
             for nf in range(params.n_files)}
    return cache, coded, deliver(params, cache, demand, coded), config


def thinned(schedule, keep_messages, keep_topups):
    """The schedule with only the kept messages and top-ups; the skipped
    subsets are rebuilt from the kept messages alone."""
    out = copy.copy(schedule)
    out.messages = schedule.messages.take(np.flatnonzero(keep_messages))
    out.topups = schedule.topups.take(np.flatnonzero(keep_topups))
    out.virtuals, _ = synthesize_skipped(schedule.params.k, schedule.leaders_mask,
                                         schedule.demand.zero_based, out.messages)
    return out


def assert_matches_reference(params, user, view, schedule, config):
    p_other, p_target = reference_ranks(params, user, view, schedule, config)
    assert _exact_ranks(params, user, view, schedule, config) == (p_other, p_target)
    res = _decode_exact(params, user, view, schedule, config)
    f = params.f
    assert (res.success, res.known, res.deficit) == (p_target == f, p_target, f - p_target)


def test_exact_ranks_equal_the_dense_reference():
    deficient = []

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(point=small_feasible_points(), seed=st.integers(0, 2**32 - 1),
           keep=st.sampled_from([1.0, 0.8, 0.5]))
    def check(point, seed, keep):
        params, demand = point
        cache, coded, schedule, config = delivered(params, demand, seed)
        rng = np.random.default_rng(seed)
        part = thinned(schedule, rng.random(len(schedule.messages)) < keep,
                       rng.random(len(schedule.topups)) < keep)
        for user in range(params.k):
            view = cache.view(user, coded)
            ranks = _exact_ranks(params, user, view, part, config)
            assert ranks == reference_ranks(params, user, view, part, config)
            # the symbols the receiver pass recovers are in the span of what it observed
            assert ranks[1] >= min(decode_user(params, user, view, part).known, params.f)
            deficient.append(ranks[1] < params.f)

    check()
    # the oracle is checked both when it says yes and when it says no
    assert any(deficient) and not all(deficient)


@pytest.mark.parametrize("rows,cols,split", [(0, 5, 2), (6, 0, 0), (9, 12, 5),
                                             (30, 20, 20), (20, 30, 0), (25, 25, 10)])
def test_forward_elimination_counts_equal_gauss_jordan(rows, cols, split):
    gf = field(16)
    rng = np.random.default_rng(rows * 100 + cols)
    for _ in range(10):
        mat = rng.integers(0, gf.order, size=(rows, cols))
        mat[rng.random((rows, cols)) < rng.random()] = 0
        if rows >= 3:
            # a zero row, a repeated row and a multiple of a row
            mat[0] = 0
            mat[1] = mat[2]
            mat[rows - 1] = gf.mul_vec(mat[2], int(rng.integers(1, gf.order)))
        want = gauss_jordan_pivots(gf, mat.copy(), split)
        assert _pivot_counts(gf, mat.T.astype(np.uint16), split) == want


@st.composite
def peelable_systems(draw):
    """A GF(2^16) system, one row per observation, and a split.  It mixes
    random rows, unit rows on a few columns (so several may hit one column)
    and a chain: the chain's first row is a unit row, and each next row
    becomes one once the column before it is peeled.  Rows are shuffled."""
    gf = field(16)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cols = draw(st.integers(0, 24))
    dense = rng.integers(0, gf.order, size=(draw(st.integers(0, 12)), n_cols))
    dense[rng.random(dense.shape) < draw(st.floats(0, 1))] = 0
    n_units = draw(st.integers(0, 2 * n_cols))
    units = np.zeros((n_units, n_cols), dtype=np.int64)
    if n_units:
        unit_cols = rng.choice(n_cols, size=draw(st.integers(1, n_cols)))
        units[np.arange(n_units), rng.choice(unit_cols, size=n_units)] = 1
    links = rng.permutation(n_cols)[:draw(st.integers(0, n_cols))]
    chain = np.zeros((links.size, n_cols), dtype=np.int64)
    chain[np.arange(links.size), links] = 1
    chain[np.arange(1, links.size), links[:-1]] = 1
    sparse = np.concatenate([units, chain])
    sparse *= rng.integers(1, gf.order, size=sparse.shape)
    mat = np.concatenate([dense, sparse])
    return mat[rng.permutation(len(mat))], draw(st.integers(0, n_cols))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=peelable_systems())
@example(system=(np.zeros((0, 0), dtype=np.int64), 0))
@example(system=(np.zeros((3, 0), dtype=np.int64), 0))
@example(system=(np.zeros((0, 4), dtype=np.int64), 2))
def test_peel_then_eliminate_counts_equal_gauss_jordan(system):
    mat, split = system
    gf = field(16)
    for at in sorted({0, split, mat.shape[1]}):
        want = gauss_jordan_pivots(gf, mat.copy(), at)
        assert _peel_then_eliminate(gf, mat.T.astype(np.uint16), at) == want


@pytest.mark.parametrize("m", [0, 2])
def test_exact_mode_at_degenerate_caches(m):
    # m = 0 caches nothing, so the basis is the systematic one; m = 2 = n_files
    # caches everything, so no coordinate is free and nothing is sent
    params = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(m), r=Fraction(2), f=8)
    stats = run_trials(params, trials=3, seed=1, mode="exact", codec="real")
    assert all(ok for t in stats.trials for ok in t.exact_successes)
    cache, coded, schedule, config = delivered(params, RequestVector.worst_case(params), 5)
    assert (schedule.total_symbols == 0) == (m == 2)
    for user in range(params.k):
        assert_matches_reference(params, user, cache.view(user, coded),
                                 schedule, config)


def test_every_user_decodes_in_exact_mode_at_k_twice_n():
    # the central claim checked by rank where k > n: same-file users share
    # most messages, and peeling leaves the most to eliminate
    params = SystemParams(n_files=3, k_prime=6, k=6, m=Fraction(1), r=Fraction(2), f=300)
    stats = run_trials(params, trials=2, seed=0, mode="exact", codec="real")
    for trial in stats.trials:
        assert all(trial.exact_successes)
        assert trial.exact_successes == trial.successes


@pytest.mark.parametrize("m,f", [(0, 8), (1, 64)])
def test_exact_decode_of_an_empty_broadcast_matches_the_reference(m, f):
    params = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(m), r=Fraction(2), f=f)
    cache, coded, schedule, config = delivered(params, RequestVector((1, 2, 1)), 7)
    empty = copy.copy(schedule)
    empty.messages = schedule.messages.take([])
    empty.topups = schedule.topups.take([])
    for user in range(params.k):
        view = cache.view(user, coded)
        assert_matches_reference(params, user, view, empty, config)
        assert not _decode_exact(params, user, view, empty, config).success


@pytest.mark.parametrize("m,r,f", [(1, 2, 512), (1, 2, 1024), (1, 2, 4096),
                                   (0, 4, 256), (0, 4, 512)])
def test_exact_decode_peak_stays_under_the_guard_figure(monkeypatch, m, r, f):
    # the size the decode checks before it allocates must bound the traced
    # peak of each user's exact decode: with the budget one byte below that
    # peak, the decode has to refuse
    p = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(m), r=Fraction(r), f=f)
    cache, coded, schedule, config = delivered(p, RequestVector.worst_case(p), 7)
    # a first decode fills any one-time cache it reads (the field tables,
    # mds._transform's constants), so each traced peak is one decode's own
    decode_user(p, 0, cache.view(0, coded), schedule, mode="exact", codec=config)
    for user in range(p.k):
        view = cache.view(user, coded)
        tracemalloc.start()
        try:
            assert decode_user(p, user, view, schedule, mode="exact", codec=config).success
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(decoding, "EXACT_BUDGET_BYTES", peak - 1)
        with pytest.raises(ParamError, match="more than the limit"):
            decode_user(p, user, view, schedule, mode="exact", codec=config)
        monkeypatch.undo()


def test_refused_exact_decode_stays_under_8_mb():
    # beyond the budget the decode refuses before it allocates the system
    p = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(1), r=Fraction(2), f=32766)
    cache, coded, schedule, config = delivered(p, RequestVector.worst_case(p), 7)
    view = cache.view(0, coded)
    tracemalloc.start()
    try:
        with pytest.raises(ParamError, match="f=32766.*256 MB"):
            decode_user(p, 0, view, schedule, mode="exact", codec=config)
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()


def test_peel_refuses_a_residual_beyond_the_budget(monkeypatch):
    # no observation has a single unknown, so the whole system is the residual
    gf = field(16)
    mat = np.random.default_rng(3).integers(1, gf.order, size=(30, 40)).astype(np.uint16)
    want = _pivot_counts(gf, mat.copy(), 10)
    price = mat.nbytes + 8 * mat.size
    monkeypatch.setattr(decoding, "EXACT_BUDGET_BYTES", price - 1)
    with pytest.raises(ParamError, match="30 x 40 residual"):
        _peel_then_eliminate(gf, mat.copy(), 10)
    monkeypatch.setattr(decoding, "EXACT_BUDGET_BYTES", price)
    assert _peel_then_eliminate(gf, mat, 10) == want
