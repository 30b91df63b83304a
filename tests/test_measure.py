"""Stability testing, moment pipelines, inner products and slices."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bscd import measure
from bscd.errors import (
    InconclusiveNearBoundary,
    NoConvergence,
    NotStable,
    WindowTooSmall,
    ZeroPolynomial,
)
from bscd.measure import (
    check_stability,
    inner_product,
    moments_from_grid,
    moments_from_series,
    random_stable_poly,
    slice_inner_product,
    slice_moments,
)
from bscd.parametric import moment_vanishing
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair, angle_grid
from bscd.schur_cohn import schur_cohn_matrix
from bscd.subspaces import closed_form_kernel_residual

from conftest import WORKED, WORKED_DEG, window_for

MIB = 2**20


def traced_peak(call):
    """The result of one call and its ``tracemalloc`` peak in MiB."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def near_boundary_draw():
    """The seed-41 (2,2) draw of ``p = 1.1 - q``, ``q > 0`` summing to 1, with
    its default report window: ``min |p| = 0.1`` at (1, 1), so the series
    refines to order 1024 and the grid route to 512 angles."""
    rng = np.random.default_rng(41)
    q = rng.uniform(0.5, 1.0, size=8)
    q /= q.sum()
    keys = [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)]
    p = Poly({(0, 0): 1.1, **{ij: -c for ij, c in zip(keys, q)}})
    return p, DegreePair(2, 2), (12, 10)


# ----------------------------------------------------------------------
# Stability
# ----------------------------------------------------------------------


def test_stable_by_triangle_inequality():
    # 3 - z - w = 0 needs |w| = |3 - z| >= 2 on the circle, and 2 - w = 0 at z = 1
    report = check_stability(WORKED, WORKED_DEG)
    assert report.stable and report.witness is None
    assert report.min_root_modulus == pytest.approx(2.0, abs=1e-12)


def test_boundary_zero_is_unstable_with_witness():
    p = Poly({(0, 0): 2, (1, 0): -1, (0, 1): -1})
    report = check_stability(p, DegreePair(1, 1))
    assert not report.stable
    z, w = report.witness
    assert abs(z - 1) < 1e-9 and abs(w - 1) < 1e-9
    assert report.min_root_modulus == abs(w) <= 1.0


def test_interior_zero_is_unstable():
    p = Poly({(0, 0): 1, (1, 0): -2})
    report = check_stability(p, DegreePair(1, 0))
    assert not report.stable
    assert abs(report.witness[0] - 0.5) < 1e-12


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        check_stability(Poly.zero(), DegreePair(0, 0))


def test_near_boundary_root_is_inconclusive():
    # the verdict is a report like the other two; only require_stable raises
    p = Poly({(0, 0): 1 + 1e-12, (1, 0): -1})
    report = check_stability(p, DegreePair(1, 0))
    assert report.stable is None
    assert report.witness == (1 + 1e-12 + 0j, 1 + 0j)
    assert report.min_root_modulus == 1 + 1e-12
    with pytest.raises(InconclusiveNearBoundary, match=r"^root modulus 1\.000000000001 "):
        report.require_stable()


# every library function that forms 1/|p|^2, called on the verdict it is given
DENSITY_FUNCTIONS = {
    "moments_from_grid": lambda s: moments_from_grid(s, (2, 2)),
    "moments_from_series": lambda s: moments_from_series(s, (2, 2)),
    "slice_moments": lambda s: slice_moments(s, [0.0], 0),
    "closed_form_kernel_residual": lambda s: closed_form_kernel_residual(
        s, measure.MomentTable((0, 0), [[1.0]], 0, 0.0), [Poly.constant(1)], [(0, 0)]
    ),
    "moment_vanishing": lambda s: moment_vanishing(s, {0: [2]}, schur_cohn_matrix(s.p, s.deg)),
}


@pytest.mark.parametrize("name", DENSITY_FUNCTIONS)
@pytest.mark.parametrize(
    "constant, error",
    [(1.5, NotStable), (2.0000000001, InconclusiveNearBoundary)],
    ids=["unstable", "inconclusive"],
)
def test_each_density_function_raises_the_verdict_it_is_given(name, constant, error):
    # 1.5 - z - w vanishes inside the bidisk; 2.0000000001 - z - w has a root
    # of modulus 1 + 1e-10.  The function reads the verdict first and scans
    # nothing; on 1.5 - z - w, T(1) = 0.25 - 1 < 0, so moment_vanishing's LU
    # alone would blame a pivot
    measure._cached_stability.cache_clear()
    stability = check_stability(Poly({(0, 0): constant, (1, 0): -1, (0, 1): -1}), WORKED_DEG)
    with pytest.raises(error, match=f"^{re.escape(stability.message)}$"):
        DENSITY_FUNCTIONS[name](stability)
    info = measure._cached_stability.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def root_scan_loop(slice_vals, zs):
    """The per-slice ``np.roots`` scan: smallest root modulus and its (z, w)."""
    min_root, witness = np.inf, None
    for k in range(slice_vals.shape[1]):
        roots = np.roots(slice_vals[::-1, k])
        if roots.size:
            moduli = np.abs(roots)
            idx = int(np.argmin(moduli))
            if moduli[idx] < min_root:
                min_root = moduli[idx]
                witness = (complex(zs[k]), complex(roots[idx]))
    return min_root, witness


DEGREE_DROPS = [
    # p_1(z) = z - 1 vanishes at z = 1: that slice is the constant 3
    (Poly({(0, 0): 4, (1, 0): -1, (0, 1): -1, (1, 1): 1}), DegreePair(1, 1)),
    # p(1, w) = 3w: a slice with a zero constant term, so a root at w = 0
    (Poly({(0, 0): 1, (1, 0): -1, (0, 1): 3}), DegreePair(1, 1)),
    # the w^2 coefficient 1 - z vanishes at z = 1: that slice is 6 - w
    (Poly({(0, 0): 6, (0, 1): -1, (0, 2): 1, (1, 2): -1}), DegreePair(1, 2)),
]


def test_batched_root_scan_is_the_np_roots_scan_to_the_bit():
    rng = np.random.default_rng(1)
    cases = [random_stable_poly(n, n, rng) for n in range(1, 9)] + DEGREE_DROPS
    grid = 1024
    zs = np.exp(2j * np.pi * np.arange(grid) / grid)
    for p, deg in cases:
        slice_vals = measure.w_slice(p, zs, deg.m + 1)
        min_root, witness = measure._min_w_root(slice_vals, zs)
        expected_root, expected_witness = root_scan_loop(slice_vals, zs)
        assert min_root == expected_root
        assert witness == expected_witness


def test_zero_slice_is_the_witness():
    # p = (1 - z)(2 - w) vanishes on the whole slice z = 1
    p = Poly({(0, 0): 2, (1, 0): -2, (0, 1): -1, (1, 1): 1})
    report = check_stability(p, DegreePair(1, 1))
    assert not report.stable
    assert report.witness == (1 + 0j, 0j) and report.min_root_modulus == 0.0


def verdict(report):
    return report.stable, report.witness, report.min_root_modulus


@pytest.mark.parametrize("exponent", [-1074, -1073, -1030, -600, 0, 600, 1020])
def test_the_scan_reads_every_power_of_two_scaling_alike(exponent):
    # the scan runs on 2^e p with max|coeff| in [1, 2): scaling p by a power of
    # two moves no bit of the report, subnormal coefficients included
    rng = np.random.default_rng(3)
    unstable = Poly({(0, 0): 1.5, (1, 0): -1, (0, 1): -1})
    cases = [(WORKED, WORKED_DEG), random_stable_poly(2, 3, rng), (unstable, DegreePair(1, 1))]
    for p, deg in cases:
        if exponent < -1000 and p is not WORKED:
            continue  # its low bits would underflow in the scaling itself
        scaled = p.scale(2.0 ** (exponent // 2)).scale(2.0 ** (exponent - exponent // 2))
        assert verdict(check_stability(scaled, deg)) == verdict(check_stability(p, deg))


def test_the_line_w_equals_one_is_one_more_slice():
    # p(z, 1) = 2.5 - 0.9 z has its root at 2.78, while the w-roots
    # (3 - z) / (0.5 - 0.1 z) stay at modulus 5 or more: the slice z -> p(z, 1)
    # decides, and its root is the np.roots root to the bit
    p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -0.5, (1, 1): 0.1})
    report = check_stability(p, DegreePair(1, 1))
    z_coeffs = p.coefficient_window((0, 1, 0, 1)).sum(axis=1)
    roots = np.roots(z_coeffs[::-1])
    assert report.stable and report.witness is None
    assert report.min_root_modulus == np.min(np.abs(roots))


# ----------------------------------------------------------------------
# Grid moments
# ----------------------------------------------------------------------


def test_lebesgue_moments_are_delta():
    table = moments_from_grid(check_stability(Poly.constant(1), DegreePair(0, 0)), (3, 3))
    assert table.get(0, 0) == pytest.approx(1.0, abs=1e-14)
    for a in range(-3, 4):
        for b in range(-3, 4):
            if (a, b) != (0, 0):
                assert abs(table.get(a, b)) < 1e-14


def test_product_measure_moments_match_geometric_series():
    p = Poly({(0, 0): 4, (1, 0): -2, (0, 1): -2, (1, 1): 1})  # (2-z)(2-w)
    table = moments_from_grid(check_stability(p, DegreePair(1, 1)), (8, 8))
    for a in range(-8, 9):
        for b in range(-8, 9):
            expected = 2.0 ** (-abs(a) - abs(b)) / 9.0
            assert abs(table.get(a, b) - expected) < 1e-10
    assert abs(table.get(1, 1) - 1.0 / 36.0) < 1e-12


def test_grid_moments_hermitian_symmetry():
    rng = np.random.default_rng(11)
    p, deg = random_stable_poly(2, 2, rng)
    table = moments_from_grid(check_stability(p, deg), (5, 5))
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert table.get(-a, -b) == pytest.approx(
                np.conj(table.get(a, b)), abs=1e-13
            )
    assert table.get(0, 0).imag == 0.0
    assert table.get(0, 0).real > 0


def torus_grid_values_ifft2(p, size):
    """The two-dimensional inverse FFT of the coefficient grid, rescaled."""
    grid = np.zeros((size, size), dtype=complex)
    for (i, j), c in p.items():
        grid[i % size, j % size] += c
    return np.fft.ifft2(grid) * (size * size)


@pytest.mark.parametrize("size", [256, 512, 1024, 2048])
def test_in_place_torus_transforms_are_the_ifft2_formulas_to_the_bit(size):
    p, _, _ = near_boundary_draw()
    assert np.array_equal(measure.torus_grid_values(p, size), torus_grid_values_ifft2(p, size))


def grid_moments_loop(stability, window, tol=measure.MOMENT_TOL):
    """The angle doubling written out for one window: at each size every slice
    is computed afresh, and the window is their inverse DFT over the angles."""
    A, B = window

    def at(size):
        slices = slice_moments(stability, angle_grid(size), B).values
        return np.fft.ifft(slices, axis=0)[np.arange(-A, A + 1)]

    size = measure.GRID_START
    prev = at(size)
    while True:
        size *= 2
        cur = at(size)
        err = float(np.max(np.abs(cur - prev)))
        if err < tol * max(1.0, float(np.max(np.abs(cur)))):
            return cur, size, err
        prev = cur


def test_refine_on_one_row_is_the_grid_loop():
    # the table reuses the slices of each size at the even angles of the next;
    # the loop computes every slice afresh, and no bit moves
    p, deg, window = near_boundary_draw()
    stability = check_stability(p, deg)
    values, size, err = grid_moments_loop(stability, window)
    table = moments_from_grid(stability, window)
    assert size == 512
    assert table.grid_size == size and table.est_error == err
    assert table.max_difference(measure.MomentTable(window, values, size, err)) == 0.0


@pytest.mark.parametrize("seed", [1, 2])
def test_each_doubling_of_the_angles_computes_the_odd_ones_only(monkeypatch, seed):
    p, deg = random_stable_poly(3, 2, np.random.default_rng(seed))
    computed = []
    slices = measure._slice_moments_unchecked

    def counted(p, deg, theta, lag):
        computed.append(theta)
        return slices(p, deg, theta, lag)

    monkeypatch.setattr(measure, "_slice_moments_unchecked", counted)
    table = moments_from_grid(check_stability(p, deg), (4, 3))
    sizes = [measure.GRID_START << k for k in range(len(computed))]
    assert table.grid_size == sizes[-1] and len(computed) >= 2
    assert np.array_equal(computed[0], angle_grid(sizes[0]))
    for size, theta in zip(sizes[1:], computed[1:]):
        assert np.array_equal(theta, angle_grid(size)[1::2])


def test_refine_stops_each_row_on_its_own():
    # row r of the window at size N is 2 scales[r] / N times a fixed row, so a
    # doubling to N moves it by 2 scales[r] / N (times that row's maximum, 1)
    scales = np.array([1e-3, 1.0, 1e-6, 30.0])
    shape = np.array([1.0, -0.5, 0.25j])
    computed = []

    def compute(size, rows):
        computed.append((size, rows.tolist()))
        return (2.0 * scales[rows] / size)[:, None] * shape

    values, sizes, changes = measure._refine(compute, 4, 4, 1 << 20, 1e-4, "test window at")
    # each row stops at the least power of two above 2e4 * scales[r]
    assert sizes.tolist() == [32, 32768, 8, 1 << 20]
    assert np.array_equal(changes, 2.0 * scales / sizes)
    assert np.array_equal(values, (2.0 * scales / sizes)[:, None] * shape)
    assert computed[:3] == [(4, [0, 1, 2, 3]), (8, [0, 1, 2, 3]), (16, [0, 1, 3])]
    assert computed[-1] == (1 << 20, [3])
    with pytest.raises(NoConvergence) as caught:
        measure._refine(compute, 4, 4, 1 << 16, 1e-4, "test window at")
    change = 2.0 * 30.0 / (1 << 16)
    assert str(caught.value) == f"test window at {1 << 16} not stable (change {change:.3e})"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_refine_raises_at_the_first_non_finite_change():
    # one row overflows; no later doubling can bring it back, so the loop
    # stops at the first doubling instead of the cap
    computed = []

    def compute(size, rows):
        computed.append(size)
        return np.array([[1.0 / size], [np.inf]])[rows]

    with pytest.raises(NoConvergence) as caught:
        measure._refine(compute, 2, 4, 1 << 20, 1e-4, "test window at")
    assert str(caught.value) == "test window at 8 not finite (change nan)"
    assert computed == [4, 8]


def scale_draws():
    """The worked example, then a ladder (4,4) and a near-boundary (3,3) draw
    (min |p| = 0.1) on ``default_rng(1)``, made as ``bench/workloads.py`` makes them."""
    rng = np.random.default_rng(1)
    keys = [(i, j) for i in range(5) for j in range(5) if (i, j) != (0, 0)]
    mass = rng.uniform(0.8, 1.6)
    q = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    q *= mass / np.abs(q).sum()
    ladder = Poly({(0, 0): 1.0 + np.abs(q).sum(), **{ij: -c for ij, c in zip(keys, q)}})
    keys = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    q = rng.uniform(0.5, 1.0, size=len(keys))
    near = Poly({(0, 0): 1.1, **{ij: -c for ij, c in zip(keys, q / q.sum())}})
    return [(WORKED, WORKED_DEG), (ladder, DegreePair(4, 4)), (near, DegreePair(3, 3))]


@pytest.mark.parametrize("k", [-10, -20])
def test_scaling_p_by_a_power_of_two_scales_every_refinement(k):
    # 2^k p has the density 2^(-2k) / |p|^2 and the series 2^(-k) / p, both
    # exact; a stopping rule relative to the window stops where p's does
    thetas = angle_grid(32)
    for p, deg in scale_draws():
        scaled, factor = p.scale(2.0**k), 2.0 ** (-2 * k)
        window = window_for(deg)
        stability, scaled_stability = check_stability(p, deg), check_stability(scaled, deg)
        grid = moments_from_grid(stability, window)
        scaled_grid = moments_from_grid(scaled_stability, window)
        series = moments_from_series(stability, window)
        scaled_series = moments_from_series(scaled_stability, window)
        for table, scaled_table in ((grid, scaled_grid), (series, scaled_series)):
            assert scaled_table.grid_size == table.grid_size
            assert np.array_equal(scaled_table._values, factor * table._values)
        slices = slice_moments(stability, thetas, deg.m)
        scaled_slices = slice_moments(scaled_stability, thetas, deg.m)
        assert np.array_equal(scaled_slices.grid, slices.grid)
        assert np.array_equal(scaled_slices.values, factor * slices.values)


# p scaled so far down that 1 / |p|^2 overflows on the torus
OVERFLOWING = Poly({(0, 0): 3e-200, (1, 0): -1e-200, (0, 1): -1e-200})


@pytest.mark.filterwarnings("error")
def test_overflowing_density_fails_at_the_first_doubling(monkeypatch):
    computed = []
    window = measure._density_window

    def counted(values, lag):
        computed.append(values.shape[-1])
        return window(values, lag)

    monkeypatch.setattr(measure, "_density_window", counted)
    stability = check_stability(OVERFLOWING, WORKED_DEG)
    # the first 256 angles, two blocks of 128, stop at their first w-doubling
    with pytest.raises(NoConvergence, match=r"^slice moments at grid 512 not finite \(change nan\)$"):
        moments_from_grid(stability, (9, 9))
    assert computed == [256, 256, 512, 512]
    with pytest.raises(NoConvergence, match=r"^series window at order 128 not finite \(change nan\)$"):
        moments_from_series(stability, (9, 9))
    for theta in ([0.3], np.linspace(0.0, 6.0, 32)):
        computed.clear()
        with pytest.raises(NoConvergence, match=r"^slice moments at grid 512 not finite \(change nan\)$"):
            slice_moments(stability, theta, 0)
        assert computed == [256, 512]


def test_torus_grid_peaks_stay_near_one_complex_grid():
    # a 1024^2 complex grid is 16 MiB; the grid moments hold no torus grid,
    # only SLICE_BLOCK slices at a time and the slice moments of every angle
    p, deg, window = near_boundary_draw()
    stability = check_stability(p, deg)
    assert traced_peak(lambda: measure.torus_grid_values(p, 1024))[1] <= 17
    table, peak = traced_peak(lambda: moments_from_grid(stability, window))
    assert peak <= 4 and table.grid_size == 512


# ----------------------------------------------------------------------
# Series moments
# ----------------------------------------------------------------------


def test_series_univariate_geometric():
    p = Poly({(0, 0): 2, (1, 0): -1})
    table = moments_from_series(check_stability(p, DegreePair(1, 0)), (6, 0))
    for k in range(-6, 7):
        assert abs(table.get(k, 0) - 2.0 ** (-abs(k)) / 3.0) < 1e-12


def test_series_identity_measure():
    table = moments_from_series(check_stability(Poly.constant(1), DegreePair(0, 0)), (2, 2))
    assert table.get(0, 0) == pytest.approx(1.0, abs=1e-15)
    assert abs(table.get(1, -2)) < 1e-15


def test_series_agrees_with_grid_on_worked_example():
    stability = check_stability(WORKED, WORKED_DEG)
    grid = moments_from_grid(stability, (8, 8))
    series = moments_from_series(stability, (8, 8))
    assert grid.max_difference(series) < 1e-10


def test_series_cap_raises_no_convergence(monkeypatch):
    # the near-boundary draw needs order 1024; capped at 128 it cannot settle
    p, deg, window = near_boundary_draw()
    monkeypatch.setattr(measure, "SERIES_CAP", 128)
    with pytest.raises(NoConvergence, match=r"series window at order 128 not stable \(change "):
        moments_from_series(check_stability(p, deg), window)


def series_window_loop(d, A, B):
    """The definition: one slice product of the series per lag."""
    T = d.shape[0] - 1
    out = np.zeros((2 * A + 1, 2 * B + 1), dtype=complex)
    for a in range(-A, A + 1):
        i0, i1 = max(0, -a), T - max(0, a)
        if i1 < i0:
            continue
        for b in range(-B, B + 1):
            j0, j1 = max(0, -b), T - max(0, b)
            if j1 < j0:
                continue
            block = d[i0 : i1 + 1, j0 : j1 + 1]
            shifted = d[i0 + a : i1 + a + 1, j0 + b : j1 + b + 1]
            out[a + A, b + B] = np.sum(block * np.conj(shifted))
    return out


@settings(max_examples=80, deadline=None)
# T = 4 with window (7, 8) pads to 12 x 15, so b = 8 lies beyond Q // 2 = 7
@example(T=4, A=7, B=8, seed=0)
@given(
    T=st.integers(0, 40),
    A=st.integers(0, 48),
    B=st.integers(0, 48),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_series_window_is_the_lag_loop(T, A, B, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(T + 1, T + 1)) + 1j * rng.normal(size=(T + 1, T + 1))
    expected = series_window_loop(raw, A, B)
    padded = np.zeros(measure._series_shape(T, A, B), dtype=complex)
    padded[: T + 1, : T + 1] = raw
    got = measure._series_window(padded, A, B)
    assert np.max(np.abs(got - expected)) <= 1e-13 * (1 + np.max(np.abs(expected)))


def test_fft_series_window_near_the_boundary_at_order_1024():
    # p = 1.1 - q with q > 0 summing to 1, so min |p| = 0.1 at (1, 1): the
    # series decays slowly enough that the oracle reaches order 1024
    rng = np.random.default_rng(41)
    q = rng.uniform(0.5, 1.0, size=8)
    q /= q.sum()
    keys = [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)]
    p = Poly({(0, 0): 1.1, **{ij: -c for ij, c in zip(keys, q)}})
    T, (A, B) = 1024, (6, 6)
    raw = measure._reciprocal_series(p, T, (T + 1, T + 1))
    padded = measure._reciprocal_series(p, T, measure._series_shape(T, A, B))
    assert np.array_equal(padded[: T + 1, : T + 1], raw)
    # the total-order triangle i + j <= T, and zero padding around it
    assert not raw[np.add.outer(np.arange(T + 1), np.arange(T + 1)) > T].any()
    assert not padded[T + 1 :].any() and not padded[:, T + 1 :].any()
    expected = series_window_loop(raw, A, B)
    got = measure._series_window(padded, A, B)
    assert np.max(np.abs(got - expected)) <= 1e-13 * (1 + np.max(np.abs(expected)))


def reciprocal_series_loop(p, T):
    """The definition: ``p * d = delta`` solved term by term, one total degree
    after the other."""
    constant = p.coefficient(0, 0)
    d = np.zeros((T + 1, T + 1), dtype=complex)
    for s in range(T + 1):
        for i in range(s + 1):
            j = s - i
            acc = 1.0 if s == 0 else 0.0
            for (k, l), c in p.items():
                if (k, l) != (0, 0) and k <= i and l <= j:
                    acc -= c * d[i - k, j - l]
            d[i, j] = acc / constant
    return d


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 4),
    m=st.integers(0, 4),
    T=st.integers(0, 40),
    pad=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_strided_series_recurrence_is_the_term_loop(n, m, T, pad, seed):
    p, _ = random_stable_poly(n, m, np.random.default_rng(seed))
    shape = (T + 1 + pad[0], T + 1 + pad[1])
    got = measure._reciprocal_series(p, T, shape)
    expected = reciprocal_series_loop(p, T)
    assert np.max(np.abs(got[: T + 1, : T + 1] - expected)) <= 1e-14 * np.max(
        np.abs(expected)
    )
    assert not got[T + 1 :].any() and not got[:, T + 1 :].any()


def test_series_solves_p_times_d_equals_one_at_order_1024():
    p, _, _ = near_boundary_draw()
    T = 1024
    d = measure._reciprocal_series(p, T, (T + 1, T + 1))
    product = np.zeros_like(d)
    for (k, l), c in p.items():
        product[k:, l:] += c * d[: T + 1 - k, : T + 1 - l]
    product[0, 0] -= 1.0
    # only the total-order triangle is determined by the truncated series
    triangle = np.add.outer(np.arange(T + 1), np.arange(T + 1)) <= T
    scale = sum(abs(c) for _, c in p.items()) * np.max(np.abs(d))
    assert np.max(np.abs(product[triangle])) <= 1e-13 * scale


def test_series_moments_peak_at_order_1024():
    # the padded series is 17.8 MiB at order 1024; the power spectrum and its
    # row transform are formed SLICE_BLOCK rows at a time
    p, deg, window = near_boundary_draw()
    stability = check_stability(p, deg)
    table, peak = traced_peak(lambda: moments_from_series(stability, window))
    assert peak <= 21 and table.grid_size == 1024


@given(target=st.integers(1, 10_000))
def test_fast_len_is_the_least_5_smooth_length(target):
    def smooth(n):
        for factor in (2, 3, 5):
            while n % factor == 0:
                n //= factor
        return n == 1

    got = measure._fast_len(target)
    assert got >= target and smooth(got)
    assert not any(smooth(k) for k in range(target, got))


# ----------------------------------------------------------------------
# Pruned passes against the full transforms, bit for bit
# ----------------------------------------------------------------------


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def full_torus_grid_values(p, size):
    """Both one-axis passes over the whole coefficient grid."""
    grid = np.zeros((size, size), dtype=complex)
    (i0, j0), (rows, cols) = p.offset, p.coeffs.shape
    index = np.ix_((i0 + np.arange(rows)) % size, (j0 + np.arange(cols)) % size)
    np.add.at(grid, index, p.coeffs)
    np.fft.ifft(grid, axis=1, norm="forward", out=grid)
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    return grid


def full_density_window(values, lag):
    """The transform out of place, the window read off at the end."""
    transform = np.fft.ifft(1.0 / np.abs(values) ** 2, axis=-1)
    return transform[..., np.arange(-lag, lag + 1) % values.shape[-1]]


def full_series_window(d, A, B):
    """The power spectrum of every row at once, and the column pass over
    every column of the half spectrum."""
    P, Q = d.shape
    np.fft.fft(d, axis=1, out=d)
    np.fft.fft(d, axis=0, out=d)
    squares = d.view(np.float64)
    squares *= squares
    half = np.fft.rfft(squares[:, 0::2] + squares[:, 1::2], axis=1)
    np.fft.fft(half, axis=0, out=half)
    half /= P * Q
    rows = np.arange(-A, A + 1) % P
    cols = np.arange(-B, B + 1) % Q
    folded = cols > Q // 2
    out = np.empty((2 * A + 1, 2 * B + 1), dtype=complex)
    out[:, ~folded] = half[np.ix_(rows, cols[~folded])]
    out[:, folded] = np.conj(half[np.ix_(-rows % P, Q - cols[folded])])
    return out


def strided_series_loop(p, order, shape):
    """One strided update per term and anti-diagonal, in term order."""
    d = np.zeros(shape, dtype=complex)
    flat = d.reshape(-1)
    step = shape[1] - 1
    constant = p.coefficient(0, 0)
    rows, cols = np.nonzero(p.coeffs)
    terms = list(zip(rows.tolist(), cols.tolist(), p.coeffs[rows, cols].tolist()))[1:]
    d[0, 0] = 1.0 / constant
    for s in range(1, order + 1):
        diag = flat[s : s * shape[1] + 1 : step]
        for k, l, c in terms:
            t = s - k - l
            if t >= 0:
                diag[k : k + t + 1] -= c * flat[t : t * shape[1] + 1 : step]
        diag /= constant
    return d


def laurent_draw(seed, low, shape):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a -0.0 imaginary part survives the constructor's cleanup of zeros
    coeffs[0, 0] = complex(2.0, -0.0)
    return Poly.from_array(coeffs, low)


@pytest.mark.parametrize(
    "low, shape, size",
    [
        ((-3, 2), (4, 5), 8),  # Laurent offsets
        ((-7, -5), (19, 13), 8),  # support wider than the torus: exponents alias
        ((0, 0), (3, 3), 256),
        ((2, -1), (9, 4), 512),
    ],
)
def test_row_pruned_torus_values_are_the_full_passes_to_the_bit(low, shape, size):
    p = laurent_draw(sum(shape), low, shape)
    assert np.signbit(p.coeffs.imag).any()
    assert_same_bits(measure.torus_grid_values(p, size), full_torus_grid_values(p, size))


@pytest.mark.parametrize("size, lag", [(16, 3), (16, 8), (16, 11), (256, 40)])
def test_one_axis_density_window_is_the_full_transform_to_the_bit(size, lag):
    rng = np.random.default_rng(size + lag)
    samples = rng.normal(size=(5, size)) + 1j * rng.normal(size=(5, size))
    got = measure._density_window(samples.copy(), lag)
    assert_same_bits(got, full_density_window(samples, lag))


@pytest.mark.parametrize(
    "T, A, B, beyond_half",
    [
        (4, 7, 8, True),
        (40, 3, 2, False),
        (64, 0, 0, False),
        (64, 3, 80, True),
        (100, 9, 50, False),
        # 216 rows: the power spectrum is formed in two blocks, the second short
        (200, 3, 4, False),
    ],
)
def test_column_pruned_series_window_is_the_full_transform_to_the_bit(T, A, B, beyond_half):
    p, _ = random_stable_poly(2, 3, np.random.default_rng(T + A + B))
    d = measure._reciprocal_series(p, T, measure._series_shape(T, A, B))
    # with B > Q // 2 the window reads every column the pruned pass keeps
    assert (B > d.shape[1] // 2) == beyond_half
    got = measure._series_window(d.copy(), A, B)
    assert_same_bits(got, full_series_window(d, A, B))


SPARSE = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
# interior zeros: no z w, z^2 w^0 or z^0 w^3 term
HOLES = Poly({(0, 0): 4, (1, 0): -1, (0, 2): 0.5j, (2, 1): -1, (2, 3): 0.25, (1, 3): 0.5})


@pytest.mark.parametrize(
    "p, order, window",
    [
        (random_stable_poly(2, 5, np.random.default_rng(1))[0], 64, (3, 9)),
        (random_stable_poly(5, 2, np.random.default_rng(2))[0], 256, (0, 0)),
        (random_stable_poly(3, 3, np.random.default_rng(3))[0], 1024, (12, 8)),
        (SPARSE, 64, (0, 0)),
        (SPARSE, 512, (5, 5)),
        (HOLES, 128, (0, 0)),
        (HOLES, 1024, (6, 9)),
        # z^40 w^40 reaches back 80 anti-diagonals, beyond the first padded
        # length 72 at window (0, 0): a term enters only once k + l <= s
        (random_stable_poly(40, 40, np.random.default_rng(4))[0], 64, (0, 0)),
    ],
)
def test_gathered_series_recurrence_is_the_strided_term_loop_to_the_bit(p, order, window):
    shape = measure._series_shape(order, *window)
    got = measure._reciprocal_series(p, order, shape)
    assert_same_bits(got, strided_series_loop(p, order, shape))
    assert_same_bits(got[: order + 1, : order + 1], strided_series_loop(p, order, (order + 1,) * 2))


# ----------------------------------------------------------------------
# Inner products
# ----------------------------------------------------------------------


def test_inner_product_of_constants(worked_moments):
    assert inner_product(
        Poly.constant(1), Poly.constant(1), worked_moments
    ) == pytest.approx(worked_moments.get(0, 0))


def test_p_is_orthogonal_to_z(worked_moments):
    value = inner_product(WORKED, Poly.monomial(1, 0), worked_moments)
    assert abs(value) < 1e-12


def test_p_has_unit_norm(worked_moments):
    value = inner_product(WORKED, WORKED, worked_moments)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_window_too_small_reports_missing_index(worked_moments):
    with pytest.raises(WindowTooSmall) as info:
        inner_product(Poly.monomial(40, 0), Poly.constant(1), worked_moments)
    assert info.value.index == (40, 0)
    # a whole computation's need is named as the window it reads
    with pytest.raises(WindowTooSmall) as info:
        worked_moments.require((12, 8))
    assert str(info.value) == "moment window |a| <= 12, |b| <= 8 needed, table has |a| <= 10, |b| <= 8"


def scalar_inner_product(f, g, moments):
    """The definition: one moment per pair of monomials, summed in order."""
    total = 0j
    for (fi, fj), fc in f.items():
        for (gi, gj), gc in g.items():
            total += fc * gc.conjugate() * moments.get(fi - gi, fj - gj)
    return total


# exponents reach past the (10, 8) window of the worked moments, so some
# pairings need moments the table does not hold
exponents = st.tuples(st.integers(-7, 7), st.integers(-6, 6))
coefficients = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)
laurent_polys = st.dictionaries(exponents, coefficients, min_size=1, max_size=6).map(Poly)


@settings(max_examples=300, deadline=None)
@given(f=laurent_polys, g=laurent_polys)
def test_inner_product_matches_the_scalar_definition(worked_moments, f, g):
    try:
        expected = scalar_inner_product(f, g, worked_moments)
    except WindowTooSmall:
        with pytest.raises(WindowTooSmall):
            inner_product(f, g, worked_moments)
        return
    value = inner_product(f, g, worked_moments)
    assert abs(value - expected) <= 1e-13 * (1 + abs(expected))


@settings(max_examples=100, deadline=None)
# every lag of these lists lies inside the (10, 8) window
@given(S=st.lists(st.tuples(st.integers(-5, 5), st.integers(-4, 4)), unique=True, max_size=12))
def test_gram_matrix_is_the_table_entry_for_entry(worked_moments, S):
    from bscd.subspaces import gram_matrix

    G = np.array(
        [[worked_moments.get(ci - ri, cj - rj) for (ci, cj) in S] for (ri, rj) in S],
        dtype=complex,
    ).reshape(len(S), len(S))
    assert np.array_equal(gram_matrix(S, worked_moments), 0.5 * (G + G.conj().T))


def test_lag_matrix_names_the_window_every_lag_needs(worked_moments):
    with pytest.raises(WindowTooSmall) as info:
        worked_moments.lag_matrix([(0, 0), (3, -1)], [(-9, 2), (1, 4), (12, 0)])
    assert info.value.index == (12, 5)
    assert str(info.value) == (
        "moment window |a| <= 12, |b| <= 5 needed, table has |a| <= 10, |b| <= 8"
    )


def test_orthogonality_of_p_and_reflection(random_family_with_moments):
    # p kills every monomial not below (0,0); the reflection kills every
    # monomial not above (n,m); both relative to the polynomial norms
    for p, deg, table in random_family_with_moments[:2]:
        n, m = deg
        pr = p.reflect(deg)
        norm_p = measure.norm(p, table)
        mono_norm = np.sqrt(table.get(0, 0).real)
        for i in range(-2, n + 3):
            for j in range(-2, m + 3):
                mono = Poly.monomial(i, j)
                if not (i <= 0 and j <= 0):
                    assert (
                        abs(inner_product(mono, p, table))
                        < 1e-8 * norm_p * mono_norm
                    )
                if i < n or j < m:
                    assert (
                        abs(inner_product(mono, pr, table))
                        < 1e-8 * norm_p * mono_norm
                    )


def test_gram_matrices_positive_definite(random_family_with_moments):
    rng = np.random.default_rng(12)
    from bscd.subspaces import gram_matrix

    for p, deg, table in random_family_with_moments:
        A, B = table.window
        monos = {
            (int(rng.integers(-A // 2, A // 2 + 1)), int(rng.integers(-B // 2, B // 2 + 1)))
            for _ in range(8)
        }
        G = gram_matrix(sorted(monos), table)
        assert np.linalg.eigvalsh(G)[0] > 0


# ----------------------------------------------------------------------
# Slices
# ----------------------------------------------------------------------



def test_w_slice_is_the_term_loop(random_family):
    z = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    for p, deg in random_family:
        expected = np.zeros((deg.m + 1, z.size), dtype=complex)
        for (i, j), c in p.items():
            expected[j] += c * z**i
        assert np.array_equal(measure.w_slice(p, z, deg.m + 1), expected)

def test_slice_of_worked_example_at_zero():
    sm = slice_moments(check_stability(WORKED, WORKED_DEG), [0.0], 5)
    for k in range(-5, 6):
        assert abs(sm.get(k)[0] - 2.0 ** (-abs(k)) / 3.0) < 1e-12


def test_slice_of_univariate_w_polynomial():
    p = Poly({(0, 0): 2, (0, 1): -1})
    for theta in (0.0, 1.3, -2.0):
        sm = slice_moments(check_stability(p, DegreePair(0, 1)), [theta], 2)
        assert sm.get(0)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_slice_conjugate_symmetry(random_family_with_moments):
    p, deg, _ = random_family_with_moments[3]
    sm = slice_moments(check_stability(p, deg), [0.77], 4)
    for k in range(5):
        assert sm.get(-k)[0] == pytest.approx(np.conj(sm.get(k)[0]), abs=1e-13)
    assert sm.get(0)[0].imag == 0.0 and sm.get(0)[0].real > 0


def test_slice_average_reproduces_moment_row(random_family_with_moments):
    # averaging the slice moments over the circle gives the (0, k) moments
    grid = 128
    for p, deg, table in (random_family_with_moments[0], random_family_with_moments[3]):
        stability = check_stability(p, deg)
        for k in range(deg.m):
            acc = 0j
            for idx in range(grid):
                theta = 2 * np.pi * idx / grid
                acc += slice_moments(stability, [theta], deg.m).get(k)[0] / grid
            assert abs(acc - table.get(0, k)) < 1e-9


def slice_moments_loop(p, deg, theta, lag, tol=measure.DEFAULT_SLICE_TOL):
    """One angle at a time with 1-D FFTs: the symmetrized moments and the stopping grid."""
    w_coeffs = measure.w_slice(p, np.exp(1j * theta), deg.m + 1)

    def window(size):
        padded = np.zeros(size, dtype=complex)
        padded[: w_coeffs.size] = w_coeffs
        density = 1.0 / np.abs(np.fft.ifft(padded) * size) ** 2
        return np.fft.ifft(density)[np.arange(-lag, lag + 1) % size]

    size = measure.GRID_START
    prev = window(size)
    while True:
        size *= 2
        cur = window(size)
        if float(np.max(np.abs(cur - prev))) < tol * max(1.0, float(np.max(np.abs(cur)))):
            break
        prev = cur
    sym = 0.5 * (cur + np.conj(cur[::-1]))
    sym[lag] = sym[lag].real
    return sym, size


def test_batched_slice_moments_are_the_per_angle_ones(monkeypatch):
    # min |p| = 0.01 at (1, 1): slices near theta = 0 need finer grids
    near = Poly({(0, 0): 1.01, (1, 0): -0.5, (0, 1): -0.3, (1, 1): -0.2})
    cases = [random_stable_poly(n, n, np.random.default_rng(1)) for n in (1, 4, 8)]
    cases.append((near, DegreePair(1, 1)))
    thetas = 2.0 * np.pi * np.arange(64) / 64
    for p, deg in cases:
        lag = deg.m + 1
        stability = check_stability(p, deg)
        batch = slice_moments(stability, thetas, lag)
        assert batch.values.shape == (64, 2 * lag + 1) and batch.grid.shape == (64,)
        for k, theta in enumerate(thetas):
            values, grid = slice_moments_loop(p, deg, theta, lag)
            assert batch.grid[k] == grid
            assert np.max(np.abs(batch.values[k] - values)) <= 1e-15
            one = slice_moments(stability, [theta], lag)
            assert one.grid[0] == grid and np.array_equal(one.values[0], values)
    assert len(set(batch.grid.tolist())) >= 3
    # the block size bounds memory only
    monkeypatch.setattr(measure, "SLICE_BLOCK", 5)
    blocked = slice_moments(stability, thetas, lag)
    assert np.array_equal(blocked.values, batch.values)
    assert np.array_equal(blocked.grid, batch.grid)


def slice_inner_product_loop(f_coeffs, g_coeffs, moments):
    """The definition: sum of f_s conj(g_t) m_{s-t} over the nonzero
    coefficients, on moments at one angle."""
    total = 0j
    for s, fc in enumerate(f_coeffs):
        for t, gc in enumerate(g_coeffs):
            if fc != 0 and gc != 0:
                total += fc * np.conj(gc) * moments.get(s - t)[0]
    return complex(total)


def test_slice_inner_product_is_the_double_loop(random_family):
    rng = np.random.default_rng(7)
    p, deg = random_family[4]
    thetas = np.array([0.3, 1.7, 4.0])
    stability = check_stability(p, deg)
    batch = slice_moments(stability, thetas, 4)
    for size_f, size_g in ((1, 1), (3, 5), (5, 2)):
        f = rng.normal(size=(3, 2, size_f)) + 1j * rng.normal(size=(3, 2, size_f))
        g = rng.normal(size=(3, 2, size_g)) + 1j * rng.normal(size=(3, 2, size_g))
        stacked = slice_inner_product(f, g, batch)
        assert stacked.shape == (3, 2)
        for k, theta in enumerate(thetas):
            one = slice_moments(stability, [theta], 4)
            for r in range(2):
                expected = slice_inner_product_loop(f[k, r], g[k, r], one)
                single = slice_inner_product(f[k : k + 1, r], g[k : k + 1, r], one)[0]
                assert abs(single - expected) <= 1e-14 * (1 + abs(expected))
                assert abs(stacked[k, r] - expected) <= 1e-14 * (1 + abs(expected))
    with pytest.raises(WindowTooSmall):
        slice_inner_product(np.ones(6), np.ones(2), batch)


def test_moment_table_json_round_trip():
    table = moments_from_grid(check_stability(WORKED, WORKED_DEG), (3, 2))
    doc = table.to_json_dict()
    assert doc["window"] == [3, 2]
    assert len(doc["values"]) == 7 * 5
    assert [[a, b] for a, b, _, _ in doc["values"]] == [
        [a, b] for a in range(-3, 4) for b in range(-2, 3)
    ]
    for a, b, re, im in doc["values"]:
        assert complex(re, im) == table.get(a, b)
    # the grid size and estimate are the moments suite's details, not the dump's
    assert list(doc) == ["window", "values"]


# ----------------------------------------------------------------------
# Random generator
# ----------------------------------------------------------------------


def test_random_stable_polynomials_are_stable_with_full_degree():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p, deg = random_stable_poly(n, m, rng)
        assert deg == (n, m)
        assert p.support_box == (0, n, 0, m)
        assert check_stability(p, deg).stable
