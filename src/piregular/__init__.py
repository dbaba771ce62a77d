"""Exact witness algebra for strongly pi-regular matrices over commutative rings.

The central pipeline turns a right witness A^n = A^(n+1) X into a machine
verified left witness A^n = Y A^(n+1) using only ring arithmetic: the
characteristic polynomial of X supplies a replacement witness that is a
polynomial in A, from which a commuting witness and finally Y are read off.
Around it sit exhaustive finite-ring searches, standard polynomial identity
checks, and a rewriting model of the classical ring where one-sided inverses
genuinely fail to be two-sided.
"""

from .errors import (
    BudgetExceeded,
    DegreeTooLarge,
    DimMismatch,
    InternalViolation,
    InvalidBound,
    InvalidSpec,
    MalformedPayload,
    NonCommutativeRing,
    NonTerminating,
    NotEnumerable,
    ParseError,
    PiregularError,
    PreconditionFailed,
    SpecMismatch,
    UnverifiedCertificate,
)
from .rings import (
    Integers,
    IntegersMod,
    PolyOver,
    QuotientPoly,
    RingElem,
    RingSpec,
    enumerate_elements,
    parse_element,
    parse_ring_spec,
    sample_element,
)
from .matrices import (
    MatrixPolynomial,
    SquareMatrix,
    UniPolynomial,
    berkowitz_char_poly,
    det_poly_matrix,
    determinant,
    parse_matrix_literal,
    right_evaluate_poly,
)
from .witnesses import (
    CertificateVerdict,
    ExponentRaiseRecord,
    LeftWitnessCertificate,
    RightWitnessInstance,
    azumaya_lower_left,
    certificate_from_json,
    certificate_to_json,
    drazin_witness,
    emit_certificate,
    exponent_raise,
    matrix_from_json,
    matrix_to_json,
    right_to_left_certificate,
    verify_certificate,
)
from .identities import (
    IdentityReport,
    check_identity_on_samples,
    matrix_units,
    search_nonvanishing,
    standard_identity,
)
from .freealg import (
    FREE,
    Ambiguity,
    FreeAlgebra,
    NCPolynomial,
    RewriteRule,
    RewriteSystem,
    ShepherdsonReport,
    nc_normal_form,
    overlap_check,
    parse_nc,
    shepherdson_demo,
    shepherdson_system,
)
from .lab import (
    ClassificationRecord,
    CpReport,
    TransposeClosureReport,
    classify_all,
    cp_report,
    left_witness_search,
    power_sequence_index,
    right_witness_search,
    transpose_closure_check,
)
from .generators import edge_instances, integer_instance, sampled_finite_instance
from .jsonio import canonical_dumps, content_hash, hash_lines

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
