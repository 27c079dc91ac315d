"""soleknot: exact group theory of closed-braid complements, satellite
knot groups, and solenoid winding classifications.

The package is pure Python over exact integers and reduced words.  Start
with :mod:`soleknot.braid` for braids and their free-group action,
:mod:`soleknot.torusgrp` for the mapping-torus normal form and the
centralizer machinery, :mod:`soleknot.knotgrp` for closure presentations
and Alexander polynomials, :mod:`soleknot.satellite` for filtrations, and
:mod:`soleknot.solenoid` for the winding-sequence classification.
"""

from .braid import (
    Braid,
    ClosureInfo,
    Permutation,
    artin_endo,
    braid_text,
    closure_info,
    induced_permutation,
    parse_braid,
)
from .errors import (
    BudgetExceeded,
    CoreMismatch,
    DepthExceedsPatterns,
    DomainError,
    EntryTooLarge,
    EntryTooSmall,
    IndexOutOfRank,
    InvalidPresentation,
    MissingPeripheral,
    NotAKnot,
    NotInfiniteCyclic,
    NotKnotLike,
    ParseError,
    RankMismatch,
    RankTooLarge,
    SoleknotError,
    StrandsOutOfRange,
    WindingTooSmall,
)
from .freegroup import (
    FreeEndo,
    Word,
    apply_endo,
    compose,
    cyclic_decompose,
    exponent_sum,
    identity_endo,
    parse_word,
    word_text,
)
from .knotgrp import (
    abelianize,
    alexander_polynomial,
    fox_matrix,
    h1_class,
    sphere_closure_presentation,
    tietze_simplify,
)
from .laurent import LaurentPoly, parse_poly, poly_text
from .presentations import (
    PeripheralPair,
    Presentation,
    parse_presentation,
    presentation_structured,
    presentation_text,
)
from .satellite import (
    CableCheck,
    FiltrationStage,
    build_filtration,
    cable_tight_criterion,
    h1_transition,
    satellite_presentation,
    search_cable_tight_witnesses,
)
from .snf import smith_normal_form
from .solenoid import (
    PrimeProfile,
    WindingSeq,
    parse_profile,
    parse_winding_seq,
    profile,
    profile_text,
    solenoids_equivalent,
    winding_seq_text,
)
from .torusgrp import (
    DEFAULT_ENUMERATION_BUDGET,
    TorusElement,
    apply_power,
    centralizer_enumeration_oracle,
    centralizer_generators,
    meridian_conjugator,
    mt_invert,
    mt_multiply,
    mt_pow,
    parse_torus_element,
    power_identity_check,
    solid_torus_presentation,
    torus_element_text,
)

__version__ = "0.1.0"
