"""Unimodal stacks whose left parts and peak lie in r mod m and right parts in -r mod m.

Exact counting (the triple-product series, checked by the sum over the peaks
and a direct dynamic-programming oracle),
the false-theta decomposition of the two-variable sum, and circle-method
asymptotics with high-precision verification of the modular ingredients.
"""

from types import ModuleType as _ModuleType

from .params import StackParams
from .qseries import (
    TruncatedSeries,
    DecompositionReport,
    stack_gf,
    stack_recurrence,
    congruence_partition_gf,
    false_theta_gf,
    correction_gf,
    verify_decomposition,
)
from .oracle import (
    StackWitness,
    count_stacks,
    enumerate_stacks,
)
from .asymptotics import (
    ArcContext,
    ComparisonRecord,
    bessel_i,
    main_term,
    refined_main_term,
    false_theta_coeffs,
    singular_expansion_coeffs,
    asymptotic_sum,
    comparison_table,
)
# analytic (the modular kernels and the contour numerics) is imported on first
# use of one of these names: count, table and asym never load it
_ANALYTIC_NAMES = (
    "DecayFit",
    "RemainderCheck",
    "CircleProfile",
    "theta_sum",
    "theta_product",
    "theta_transform_residual",
    "dedekind_eta",
    "eta_inversion_residual",
    "congruence_product",
    "congruence_product_main",
    "product_residual",
    "decay_precision",
    "product_decay_fit",
    "false_theta",
    "cubic_model",
    "cubic_remainder_check",
    "false_theta_series_residual",
    "tanh_sinh",
    "major_arc_integral",
    "contour_tail",
    "circle_profile",
)

__version__ = "0.1.0"

# every public name the package binds, the analytic ones once first used
__all__ = [name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__all__ += _ANALYTIC_NAMES


def __getattr__(name: str):
    if name not in _ANALYTIC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import analytic

    value = globals()[name] = getattr(analytic, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()).union(_ANALYTIC_NAMES))
