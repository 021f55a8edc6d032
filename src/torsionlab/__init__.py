"""torsionlab: exact obstruction spaces for torsion-free structures on
almost Abelian Lie algebras, with closed-form cross-checks and
existence deciders."""

from .algebras import LinearSubalgebra, commutant, conjugate, is_subalgebra
from .builders import build, catalog
from .engine import (
    AlmostAbelian,
    Certificate,
    ConnectionTensor,
    Refusal,
    characteristic_subalgebra,
    check_torsion_free,
    connection_space,
    curvature_tensor,
    first_prolongation,
    flat_certificate,
    nijenhuis,
    obstruction_space,
    tableau,
    torsion_maps,
    torsion_tensor,
)
from .existence import (
    admits_torsion_free,
    classify_hyperparacomplex,
    decide_product,
    decide_tangent,
    hpc_flatness,
    orbit_catalog,
    product_obstruction,
    tangent_obstruction,
)
from .linalg import Mat, Subspace, image, kernel
from .profiles import StructuralProfile, closed_form_F, crosscheck, profile, totally_real_type
from .ellipticity import classify_low_rank, low_rank_witness
from .verify import verify_paper

__version__ = "0.1.0"
