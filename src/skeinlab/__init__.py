"""skeinlab: exact Kauffman bracket skein calculus at roots of unity.

Diagram evaluation in the disk and annulus, Chebyshev threading, the torus
skein algebra with its solid-torus action, genus-1 Heegaard computation of
lens-space skein modules, SL2 character rings in trace coordinates, and the
commutative-algebra toolkit (Groebner bases, Artinian decomposition,
matrix-ideal quotients) backing them. All arithmetic is exact.
"""

__version__ = "0.1.0"

from .chebyshev import ChebPoly, cheb_T, thread_annulus
from .charring import (
    CharRingReport,
    GroupPresentation,
    Word,
    char_ring,
    character_ideal,
    trace_poly,
    trivial_character_eval,
)
from .coeffs import (
    CoeffField,
    CyclotomicScalar,
    GenericQ,
    LaurentPoly,
    RationalFunction,
    Rationals,
    RootSpec,
    ZetaField,
    field_from_tag,
    root_spec,
)
from .diagrams import (
    AnnulusSkein,
    FramedDiagram,
    bracket_annulus,
    bracket_disk,
    pushed_curve_with_cores,
)
from .groebner import PolyIdeal, QuotientRing, buchberger
from .artinian import (
    LocalFactor,
    PresentedModule,
    artinian_decompose,
    local_multiplicity,
    specialize_vs_localize,
)
from .heegaard import GluingMatrix, LensReport, dim_K_q, lens_module
from .matideals import FinAlg, MatIdeal, column_space, row_space, verify_lr_quotient
from .multipoly import MultiPoly
from .solidtorus import ActionCache, act
from .torus import TorusSkein, commutator, is_central, thread_torus, torus_mul
