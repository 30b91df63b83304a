"""Properties of the circle layer: every function on an array of angles
returns, row by row, what it returns on each angle alone."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bscd.cd_kernel import cd_kernel_set, slice_gram
from bscd.measure import check_stability, random_stable_poly, slice_moments
from bscd.parametric import orthogonality_check, parametric_polynomials
from bscd.poly import angle_grid
from bscd.schur_cohn import principal_determinants, schur_cohn_matrix


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_every_row_is_the_one_angle_result(n, m, seed):
    p, deg = random_stable_poly(n, m, np.random.default_rng(seed))
    T = schur_cohn_matrix(p, deg)
    ks = cd_kernel_set(p, deg, T)
    for K in (1, 5, 32):
        thetas = angle_grid(K)
        profile = principal_determinants(T, thetas)
        op = parametric_polynomials(profile)
        sm = slice_moments(check_stability(p, deg), thetas, m - 1)
        for k in range(K):
            one = principal_determinants(T, thetas[k : k + 1])
            assert np.array_equal(profile.matrix[k], one.matrix[0])
            assert np.array_equal(profile.D[k], one.D[0])
            one_op = parametric_polynomials(one)
            assert np.array_equal(op.U[k], one_op.U[0])
            assert np.array_equal(op.L_factor[k], one_op.L_factor[0])
            assert all(np.array_equal(a[k], b[0]) for a, b in zip(op.phi, one_op.phi))
            one_sm = slice_moments(check_stability(p, deg), thetas[k : k + 1], m - 1)
            assert np.array_equal(sm.values[k], one_sm.values[0])
            assert sm.grid[k] == one_sm.grid[0]
        # the second route of the matrix: the slice Gram of the kernel family
        scale = max(1.0, np.max(np.abs(profile.matrix)))
        assert np.max(np.abs(slice_gram(ks, sm) - profile.matrix)) <= 1e-12 * scale
        check = orthogonality_check(op, sm)
        assert np.max(check["offdiag_max"]) < 1e-9
        assert np.max(check["lu_law_residual"]) < 1e-9


def test_no_angles_give_empty_rows():
    # every function on angles takes an empty array too, and returns no rows
    p, deg = random_stable_poly(2, 3, np.random.default_rng(4))
    none = angle_grid(0)
    profile = principal_determinants(schur_cohn_matrix(p, deg), none)
    assert profile.D.shape == (0, deg.m + 1) and profile.matrix.shape == (0, deg.m, deg.m)
    sm = slice_moments(check_stability(p, deg), none, deg.m - 1)
    assert sm.values.shape == (0, 2 * deg.m - 1) and sm.grid.shape == (0,)
    assert sm.lag_matrix(deg.m, deg.m).shape == (0, deg.m, deg.m)
