"""Construction and verification of bivariate Bernstein-Szego kernel objects.

The package follows one stable polynomial p (zero-free on the closed bidisk)
through the chain of objects its measure dsigma/|p|^2 generates: Fourier
moments, the Schur-Cohn matrix on the circle, the parametrized
Christoffel-Darboux kernel with its coefficient family, reproducing kernels
of monomial spans, and the orthogonal polynomials of the sliced circle
measures.  Every layer is checked numerically at desk scale by at least two
independent routes, and the ``bscd`` command line runs each pair in the
suite that owns the layer.
"""

from .cd_kernel import (
    CDKernelSet,
    cd_kernel_set,
    cofactor_decomposition,
    kernel_by_divided_difference,
    kernel_coefficients,
    slice_gram,
)
from .measure import (
    MomentTable,
    SlicedMoments,
    StabilityReport,
    check_stability,
    inner_product,
    moments_from_grid,
    moments_from_series,
    norm,
    random_stable_poly,
    slice_inner_product,
    slice_moments,
    torus_grid_values,
)
from .parametric import (
    ParametricOPUC,
    gram_schmidt_slice_polynomials,
    lu_no_pivot,
    moment_vanishing,
    orthogonality_check,
    parametric_polynomials,
)
from .poly import BivariateLaurentPoly, DegreePair
from .schur_cohn import (
    DeterminantProfile,
    LaurentMatrixPoly,
    diagonal_average,
    evaluate_on_circle,
    principal_determinants,
    schur_cohn_matrix,
)
from .subspaces import (
    OrthReport,
    RelationFamily,
    SubspaceSpec,
    cd_formula_residual,
    closed_form_kernel_pairing,
    closed_form_kernel_residual,
    default_lshape_monomials,
    gram_matrix,
    in_coefficient_orthogonality_set,
    monomial_rect,
    orthogonality_report,
    reconstruct_kernel_coefficients,
    shift_orthogonality_report,
)

__version__ = "0.1.0"
