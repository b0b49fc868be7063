"""Toolkit for affine isometry groups of R^(n+1,n).

Computes consistent orientations on maximal isotropic subspaces, spectral
splittings and neutral vectors of proximal elements, Margulis invariant
spectra over free-group word balls, (r, eps)-proximality certificates with
the finite correcting-set search, and contraction diagnostics, and combines
them into the opposite-sign necessary test for proper affine actions.
"""

from .core import (
    DEFAULT_TOL,
    FrameError,
    GeometryError,
    IsotropicFrame,
    OrientationError,
    QuadraticSpace,
    SubspaceFrame,
    b_orthogonal_complement,
    canonical_orientation,
    isotropic_frame,
    largest_principal_angle,
    random_isotropic_frame,
    random_positive_definite_subspace,
    random_so_element,
    signature,
    spans_equal,
    standard_form,
)
from .group import (
    AffineIsometry,
    BlockFormError,
    FreeGroupRep,
    MembershipError,
    ReducedWord,
    WordError,
    affine_isometry,
    ball_elements,
    check_reductive_block_form,
    compose,
    conjugacy_key,
    evaluate_word,
    form_defect,
    identity_isometry,
    in_identity_component,
    inverse,
    power,
    validate_membership,
    word_ball,
)
from .proximal import (
    AmsCover,
    InsufficientSamplesError,
    NotProximalError,
    ParameterError,
    ProximalityCertificate,
    SpectralSplit,
    TransversalityError,
    ams_cover,
    is_r_eps_proximal,
    neutral_vector,
    spectral_split,
    transverse,
)
from .margulis import (
    SpectrumReport,
    WordInvariant,
    ZeroInvariantError,
    inverse_symmetry_probe,
    margulis_invariant,
    power_additivity_check,
    spectrum,
    translation_length_proxy,
)
from .anosov import (
    ContractionTrace,
    LimitSample,
    Scorecard,
    affine_anosov_scorecard,
    contraction_trace,
    limit_map_samples,
    splitting_at,
    transversality_matrix,
)
from .repcatalog import CATALOG_NAMES, catalog, catalog_rep
from .reports import (
    DocumentError,
    RepDocument,
    ReportDocument,
    ReportParameters,
    emit,
    parse_rep,
    rep_to_document,
    run_report,
)

__version__ = "0.1.0"
