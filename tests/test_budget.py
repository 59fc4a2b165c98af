"""The one byte budget: every sized entry point counts its bytes against
``klsums.errors.MAX_BYTES`` before it allocates.

Each site is called once with the budget one byte below its count (refused,
with nothing allocated and a message naming its parameters) and once with
the budget at its count (admitted).  Lowering the one constant is enough to
move every site's limit.
"""

import tracemalloc

import numpy as np
import pytest

from klsums import errors, strata, sums
from klsums.bilinear import (
    CoeffSeq,
    averaged_comparison_full_sample,
    averaged_comparison_power_sum,
    bilinear_form,
    shift_reduction_trace,
)
from klsums.chartuples import CharTuple
from klsums.errors import ResourceLimitError
from klsums.field import build_field
from klsums.kloosterman import kl_table_fast, kl_table_naive
from klsums.strata import singular_polynomial, stratum_scan
from klsums.sums import kr_matrix, sigma_II, sigma_II_direct

# the first PCG64 in a process imports its seeding modules (about 1 MB under
# tracemalloc), which a measured site must not be charged for
np.random.PCG64(0)

Q = 211
B = (1, 2, 3, 4)
F13 = build_field(13)
F131 = build_field(131)


def resolvent_bytes(k, l, rows=1):
    # per b, 3x the gather of the 2l - 1 variables left once x_2l is
    # eliminated and 512 bytes; per chunk, 8 KiB
    n = 2 * l
    return rows * (3 * 8 * (n - 1) * k ** (n - 1) * (k ** (n - 2) + 1) + 2**9) + 2**13


def block_rows(q):
    # rows r per block of N: BLOCK_ENTRIES entries, at least 1 and at most
    # q rows
    return min(max(1, sums.BLOCK_ENTRIES // q), q)


def fast_bytes(q):
    # prod, one roll of the spectrum or the split's (m, p) array, the
    # residue-order table with its scatter index, 16 KiB; the spectrum is
    # the field's
    return 48 * q + 2**14


def naive_bytes(q, k):
    # the k log factors, then per fold the last fold's output, np.convolve's
    # reversed input copy and its 2(q - 1) - 1 entry output, counted as 5
    # vectors; assembly (the table and its scatter index) holds less;
    # 16 KiB
    return 16 * q * (k + 5) + 2**14


def kr_matrix_bytes(q, n=None):
    # kmat (q + block_rows rows), the n-row output (all q rows by default),
    # one row more for kmat's build (logs and its index), 16 KiB
    return 16 * q * (q + (q if n is None else n) + block_rows(q) + 1) + 2**14


def kr_gather_bytes(q, n=None):
    # the same with kmat's windows in its place: the log table (3 (q - 1)
    # entries) and the window index (q + block_rows - 1 int64), 4 rows
    return 16 * q * (4 + (q if n is None else n) + 1) + 2**14


def direct_bytes(q):
    # kmat (q + block_rows rows), and beside it one block of DIRECT_ROWS
    # (256, at most q) rows of N, the 64-row Gram slab and the
    # DIRECT_ROWS x 64 conjugated block, 16 KiB
    d = min(sums.DIRECT_ROWS, q)
    return 16 * q * (q + block_rows(q)) + 16 * q * (d + 64) + 16 * d * 64 + 2**14


def sweep_bytes(q):
    # kmat (q + block_rows rows), kr_matrix's block, the bfR vector, 8 bytes
    # per block partial, 16 KiB
    rows = block_rows(q)
    return 16 * q * (q + 2 * rows + 1) + 8 * -(-q // rows) + 2**14


def sweep_gather_bytes(q):
    # the same with kmat's windows (4 rows) in place of kmat
    rows = block_rows(q)
    return 16 * q * (4 + rows + 1) + 8 * -(-q // rows) + 2**14


def power_sum_bytes(q, m):
    # six length-q complex vectors (L, S, a row, its transforms and their
    # product), the doubled psi at m = 1, two complex partials per row
    # (q^m rows), 16 KiB
    return 16 * (6 + 2 * m) * q + 32 * q**m + 2**14


def bilinear_bytes(M, N):
    # one block of BLOCK_ENTRIES // N rows of alpha (at least one, at most
    # M): its int64 index and complex128 gather, the length-N row
    # alpha_blk K[blk], 16 bytes per block partial, 16 KiB
    rows = min(M, max(1, sums.BLOCK_ENTRIES // N))
    return (24 * rows + 16) * N + 16 * -(-M // rows) + 2**14


def shift_trace_bytes(M, N, A, B):
    # the M x N gather, 104 bytes per nu key, one majorant block of 2^14 entries
    return 24 * M * N + 104 * A * N * M * (M - 1) + 64 * max(B, 2**14)


@pytest.fixture(scope="module")
def table():
    f = build_field(Q)
    return kl_table_fast(f, CharTuple(f, (0, 0)))


# name: (call on the module's q = 211 table, counted bytes, message prefix)
SITES = {
    "build_field": (lambda t: build_field(100003), 56 * 100003 + 2**14, "field at q=100003"),
    "kl_table_naive": (lambda t: kl_table_naive(t.field, t.tuple), naive_bytes(Q, 2),
                       f"naive Kl table at q={Q}"),
    "kl_table_fast": (lambda t: kl_table_fast(t.field, t.tuple), fast_bytes(Q),
                      f"fast Kl table at q={Q}"),
    # one byte below kmat's count the Sigma routes gather kmat's rows, and
    # one byte below the gathered count they are refused; the direct
    # route requires kmat
    "kr_matrix": (lambda t: kr_matrix(t, B), kr_gather_bytes(Q), f"kr_matrix at q={Q}"),
    "sigma_II(direct=True)": (lambda t: sigma_II(t, B, direct=True), direct_bytes(Q),
                              f"sigma_II_direct at q={Q}"),
    "sigma_II_direct": (lambda t: sigma_II_direct(t, B), direct_bytes(Q),
                        f"sigma_II_direct at q={Q}"),
    "sigma_II": (lambda t: sigma_II(t, B), sweep_gather_bytes(Q), f"Sigma sweep at q={Q}"),
    "averaged_comparison_full_sample": (lambda t: averaged_comparison_full_sample(t, 2, 4),
                                        sweep_gather_bytes(Q), f"Sigma sweep at q={Q}"),
    "averaged_comparison_power_sum": (lambda t: averaged_comparison_power_sum(t, 4, 1),
                                      power_sum_bytes(Q, 1),
                                      f"power-sum comparison at q={Q}, n=4, m=1"),
    "singular_polynomial": (lambda t: singular_polynomial(F131, 5, B), resolvent_bytes(5, 2),
                            "resolvent at q=131, k=5, l=2"),
    "singular_polynomial(batch)": (lambda t: singular_polynomial(F13, 2, [B] * 5),
                                   resolvent_bytes(2, 2, 5), "resolvent at q=13, k=2, l=2"),
    # the b array and reports, beside the resolvent's one chunk of all 13^2 b
    "stratum_scan": (lambda t: stratum_scan(F13, 2, 1, exhaustive=True),
                     400 * 13**2 + resolvent_bytes(2, 1, 13**2),
                     "exhaustive stratum scan at q=13, l=1"),
    "bilinear_form": (lambda t: bilinear_form(t, CoeffSeq.ones(100), CoeffSeq.ones(150)),
                      bilinear_bytes(100, 150), f"bilinear form at q={Q}, M=100, N=150"),
    "shift_reduction_trace": (lambda t: shift_reduction_trace(t, CoeffSeq.ones(5), N=20, A=2, B=3, l=2),
                              shift_trace_bytes(5, 20, 2, 3),
                              f"shift-reduction trace at q={Q}, M=5, N=20, A=2, B=3"),
}


@pytest.mark.parametrize("name", SITES)
def test_site_refuses_one_byte_short_and_admits_at_its_count(name, table, monkeypatch):
    call, need, what = SITES[name]
    monkeypatch.setattr(errors, "MAX_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            call(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{what} needs {need} bytes, over the {need - 1}-byte bound"
    assert peak < need / 4  # refused before its arrays were allocated
    monkeypatch.setattr(errors, "MAX_BYTES", need)
    call(table)


@pytest.mark.parametrize("k,l,q", [(2, 4, 137), (3, 3, 271), (5, 2, 131), (2, 2, 97),
                                   (3, 1, 1000003)])
def test_resolvent_count_covers_measured_peak(k, l, q):
    # the small shapes peak at numpy's call overhead, which the fixed 8 KiB covers
    f = build_field(q)
    tracemalloc.start()
    try:
        singular_polynomial(f, k, tuple(range(1, 2 * l + 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= resolvent_bytes(k, l)


# b per full RESOLVENT_CHUNK_BYTES (4 MiB) chunk
CHUNK_ROWS = {(2, 1): 6885, (2, 2): 1234, (3, 2): 209, (2, 3): 63, (4, 2): 53}


@pytest.mark.parametrize("k,l,q", [(2, 1, 1000003), (2, 2, 97), (3, 2, 499), (2, 3, 499),
                                   (4, 2, 509)])
def test_resolvent_chunk_count_covers_measured_peak(k, l, q):
    # one full chunk of b: the count is per chunk, whatever the batch size;
    # at l = 1 the Python ints of M and M^k, past the small-int cache at
    # q = 1000003, outweigh the gather
    f = build_field(q)
    rows = CHUNK_ROWS[k, l]
    assert resolvent_bytes(k, l, rows) <= strata.RESOLVENT_CHUNK_BYTES < resolvent_bytes(k, l, rows + 1)
    bs = np.random.Generator(np.random.PCG64(1)).integers(0, q, size=(rows, 2 * l))
    singular_polynomial(f, k, bs[:1])  # the cached row maps
    tracemalloc.start()
    try:
        singular_polynomial(f, k, bs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= resolvent_bytes(k, l, rows)


@pytest.mark.parametrize("q", [1009, 3659, 10007])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [1, 2])
def test_naive_count_covers_measured_peak(q, k, a):
    # O(k q) bytes at every q: k = 4 peaks at its last fold (8.05 * 16 q at
    # q = 1009), k = 2 at a = 2 in the scale permutation
    f = build_field(q)
    t = CharTuple(f, tuple(range(1, k + 1)))
    tracemalloc.start()
    try:
        kl_table_naive(f, t, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= naive_bytes(q, k)


@pytest.mark.parametrize("q", [97159, 96001], ids=["split", "unsplit"])
@pytest.mark.parametrize("chars", [(5,), (0, 0), (0, 1, 7)])
@pytest.mark.parametrize("a", [1, 2])
def test_fast_count_covers_measured_peak(q, chars, a):
    # 96000 = 2^8 * 3 * 5^3 goes to numpy whole, 97158 = 6 * 16193 splits;
    # the field's tables (spectrum and dlog) are built outside the
    # measurement.  The scaled tables peak at 48.0 q in the scatter, the
    # unscaled ones at 40.0 q
    f = build_field(q)
    f.gauss_spectrum, f.dlog
    t = CharTuple(f, chars)
    tracemalloc.start()
    try:
        kl_table_fast(f, t, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fast_bytes(q)


def test_fast_count_refuses_no_admitted_field(table, monkeypatch):
    # with the budget at the field's own count (56 q + 16 KiB) the table is
    # admitted: its count is 48 q + 16 KiB, so it refuses no q past
    # 2.24e7, and build_field none past 1.92e7
    monkeypatch.setattr(errors, "MAX_BYTES", 56 * Q + 2**14)
    kl_table_fast(table.field, table.tuple, 2)


@pytest.mark.parametrize("q", [3659, 10007])
def test_naive_fold_frees_its_full_output(q):
    # each fold copies the lower half out of np.convolve's 2(q - 1) - 1 entry
    # output, so no fold holds the last fold's full output beside its own:
    # k = 4 peaks at 8.0 * 16 q, a vector under the count (9.0 while a fold
    # returned a view of its output)
    f = build_field(q)
    t = CharTuple(f, (1, 2, 3, 4))
    tracemalloc.start()
    try:
        kl_table_naive(f, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * q * (4 + 4) + 2**14


@pytest.mark.parametrize("q,hi", [(211, None), (499, None), (4099, None), (4099, 1)],
                         ids=["211", "499", "4099", "4099-row0"])
def test_kr_matrix_count_covers_measured_peak(q, hi):
    # a fresh table, so the peak includes building kmat; a block is 15 rows
    # at q = 4099, and row 0 alone, as the full-sample comparison reads it,
    # peaks at kmat and the log table and index it is gathered from
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (1, 5)))
    tracemalloc.start()
    try:
        kr_matrix(t, (1, 2, 3, 4), 0, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kr_matrix_bytes(q, hi)


def test_direct_count_covers_measured_peak():
    # fresh tables, so the peak includes building kmat; q = 211 is one
    # block of N, q = 523 two full blocks and one of 11 rows, each with
    # nine Gram blocks, the last of them ten columns; real and complex
    for q in (211, 523):
        f = build_field(q)
        for chars in ((0, 0), (1, 5)):
            t = kl_table_fast(f, CharTuple(f, chars))
            tracemalloc.start()
            try:
                sigma_II_direct(t, (1, 2, 3, 4))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= direct_bytes(q), (q, chars)


@pytest.mark.parametrize("q", [211, 523])
@pytest.mark.parametrize("chars", [(0, 0), (1, 5)], ids=["real", "complex"])
def test_direct_holds_one_block_and_slab_beside_kmat(q, chars):
    # with kmat built, the route holds one block of N, the first Gram
    # block's diagonal product and slab (64 x (q - 1) entries together)
    # and, for a complex N, the conjugated block, and under 8 KiB more:
    # both products are contiguous, so no sum pays numpy's 8192-entry
    # iterator buffer (64 KiB real, 128 KiB complex)
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, chars))
    item = sums._kmat(t).itemsize
    d, n = min(sums.DIRECT_ROWS, q), q - 1
    held = item * (d + 64) * n + (16 * d * 64 if item == 16 else 0)
    tracemalloc.start()
    try:
        sigma_II_direct(t, (1, 2, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= peak < held + 2**13


@pytest.mark.parametrize("q", [211, 997, 4099])
def test_sweep_count_covers_measured_peak(q):
    # a fresh table, so the peak includes building kmat (16 q^2 bytes and
    # block_rows - 1 repeated rows); past kmat the sweep holds one block of
    # at most BLOCK_ENTRIES entries, so a q x q N (16 q^2 more) is never formed
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (1, 5)))
    tracemalloc.start()
    try:
        sigma_II(t, (1, 2, 3, 4, 5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sweep_bytes(q)
    assert peak < 16 * q**2 + 2 * 16 * sums.BLOCK_ENTRIES + 2**14


@pytest.mark.parametrize("q", [211, 997, 4099])
@pytest.mark.parametrize("chars", [(0, 0), (1, 5)], ids=["real", "complex"])
def test_sweep_gathered_count_covers_measured_peak(q, chars, monkeypatch):
    # the budget at the gathered count, below kmat's: the sweep holds kmat's
    # windows, one block and the bfR vector, and builds no kmat
    monkeypatch.setattr(errors, "MAX_BYTES", sweep_gather_bytes(q))
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, chars))
    tracemalloc.start()
    try:
        sigma_II(t, (1, 2, 3, 4, 5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t not in sums._KMATS
    assert peak <= sweep_gather_bytes(q)


def test_sweep_streams_one_b_at_8191_in_bounded_bytes():
    # the first prime past kmat's count at the 1 GiB budget: the sweep
    # multiplies each row's windows of the log table (blocks of 8 rows),
    # holding under 1 MiB where kmat would be 1.07 GB
    q = 8191
    assert sums._kmat_bytes(q) > errors.MAX_BYTES
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (0, 0)))
    tracemalloc.start()
    try:
        sigma_II(t, (1, 2, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t not in sums._KMATS
    assert peak <= sweep_gather_bytes(q) and peak < 2**20


@pytest.mark.parametrize("q,hi", [(211, None), (499, None), (4099, 1)], ids=["211", "499", "4099-row0"])
def test_kr_matrix_gathered_count_covers_measured_peak(q, hi, monkeypatch):
    # the budget at the gathered count: the output, kmat's windows and no kmat
    monkeypatch.setattr(errors, "MAX_BYTES", kr_gather_bytes(q, hi))
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (1, 5)))
    tracemalloc.start()
    try:
        kr_matrix(t, (1, 2, 3, 4), 0, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t not in sums._KMATS
    assert peak <= kr_gather_bytes(q, hi)


@pytest.mark.parametrize("name", ["kr_matrix", "sigma_II", "averaged_comparison_full_sample"])
def test_sigma_site_streams_one_byte_below_kmat(name, table, monkeypatch):
    # one byte below the cached count a Sigma site gathers kmat's rows, on
    # a fresh table, and returns the cached route's output bit for bit
    call, _, _ = SITES[name]
    cached = {"kr_matrix": kr_matrix_bytes(Q)}.get(name, sweep_bytes(Q))
    want = call(table)
    fresh = kl_table_fast(table.field, table.tuple)
    monkeypatch.setattr(errors, "MAX_BYTES", cached - 1)
    got = call(fresh)
    assert fresh not in sums._KMATS
    if name == "kr_matrix":
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


@pytest.mark.parametrize("q,m", [(211, 0), (211, 1), (1009, 0), (1009, 1)])
def test_power_sum_count_covers_measured_peak(q, m):
    # a fresh table: the comparison reads values alone, so its peak is O(q)
    # and it builds no kmat (nor the kernel kmat reads)
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (1, 5)))
    tracemalloc.start()
    try:
        averaged_comparison_power_sum(t, 4, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= power_sum_bytes(q, m)
    assert t not in sums._KMATS and set(vars(t)) == {"field", "tuple", "scale", "values"}


@pytest.mark.parametrize("q,m", [(1009, 0), (1009, 1)])
@pytest.mark.parametrize("chars", [(0, 0), (0, 504)], ids=["real", "real-salie"])
def test_power_sum_real_table_casts_no_kmat(q, m, chars):
    # a fresh real table: the comparison builds no kmat at all, so neither
    # kmat nor a complex cast of it shows in the O(q) peak; kmat, built
    # afterwards, stays float64
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, chars))
    tracemalloc.start()
    try:
        averaged_comparison_power_sum(t, 4, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t not in sums._KMATS and set(vars(t)) == {"field", "tuple", "scale", "values"}
    assert peak <= power_sum_bytes(q, m)
    assert sums._kmat(t).dtype == np.float64


@pytest.mark.parametrize("q,M,N", [(1009, 1000, 30), (10007, 2000, 2000), (100003, 3, 99999)])
def test_bilinear_count_covers_measured_peak(q, M, N):
    # one block of all of alpha, 63 blocks of 32 rows, and three blocks of
    # one row: the peak is one block's, whatever M
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (0, 0)))
    alpha, beta = CoeffSeq.ones(M), CoeffSeq.ones(N)
    tracemalloc.start()
    try:
        bilinear_form(t, alpha, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bilinear_bytes(M, N)


@pytest.mark.parametrize("q,M,N,A,B", [(1009, 20, 60, 2, 2), (1009, 2, 500, 1, 500),
                                        (10007, 10, 200, 2, 60)])
def test_shift_trace_count_covers_measured_peak(q, M, N, A, B):
    # key-bound, block-bound and mixed shapes
    f = build_field(q)
    t = kl_table_fast(f, CharTuple(f, (0, 0)))
    tracemalloc.start()
    try:
        shift_reduction_trace(t, CoeffSeq.ones(M), N=N, A=A, B=B, l=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= shift_trace_bytes(M, N, A, B)


def test_field_count_covers_measured_peak():
    # the count includes the cached gauss_spectrum
    q = 100003
    tracemalloc.start()
    try:
        build_field(q).gauss_spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * q + 2**14


@pytest.mark.parametrize("q", [4099, 39983, 97159])
def test_split_field_count_covers_measured_peak(q):
    # log_dft splits q - 1 = 6*683, 2*19991 and 6*16193: the split's (m, p)
    # array takes the place of numpy's out-of-place output
    tracemalloc.start()
    try:
        build_field(q).gauss_spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * q + 2**14


def test_every_admitted_field_is_int64_exact():
    # products of two residues below 2^31 stay below 2^62
    assert errors.MAX_BYTES // 56 < 2**31
