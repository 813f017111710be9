"""wulffsym: anisotropic Hessian invariants and mixed-volume symmetrization."""

__version__ = "0.1.0"

from .invariants import (  # noqa: F401
    mixed_discriminant,
    newton_stack,
    newton_transform,
    newton_transform_delta_oracle,
    sigma_k,
    sk,
    sk_delta_oracle,
    sk_stack,
)
from .anisotropy import (  # noqa: F401
    Norm,
    dual_hessian,
    dual_jet,
    dual_jets,
    ellipsoid_norm,
    euclidean_norm,
    eval_grad,
    eval_jet,
    regularized_p_norm,
    wulff_volume,
)
from .fields import (  # noqa: F401
    Field,
    FieldJet,
    build_preset,
    perturbed_radial,
    preset_catalog,
    quadratic_ellipsoid,
    radial_field,
    radial_power,
)
from .field_ops import (  # noqa: F401
    PolarTable,
    aniso_hessian,
    generalized_integral,
    hessian_integral,
    hessian_integral_coarea,
    level_curvature,
    sk_field,
)
from .bodies import (  # noqa: F401
    LevelSetSample,
    LevelTable,
    af_margins,
    af_pairs,
    mean_radius,
    mixed_volume,
    sample_level_set,
)
from .radial import (  # noqa: F401
    MonotoneProfile,
    radial_hessian_integral,
    radial_sk,
    rearrange,
    solve_radial,
)
from .symmetrize import (  # noqa: F401
    comparison_margin,
    lp_compare,
    ps_margin,
    ps_margin_p,
    sobolev_constant,
    sobolev_exponent,
    sobolev_margin,
    symmetrand,
    zeta_profile,
)
