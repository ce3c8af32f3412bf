"""Exact pair-form calculus with band-limited torus cohomology."""

from .charts import (
    Chart,
    ChartCompatibilityError,
    ChartKind,
    ChartMismatchError,
    affine,
    affine_complex,
    torus,
    torus_complex,
)
from .rationals import GaussianRational, gq
from .scalar import ChartMap, ScalarExpr, identity_map
from .exterior import Form, VectorField
from .pair import PairForm
from .relative import RelPairForm
from .cohomology import BandComplex, UnsupportedScenarioError

__version__ = "0.1.0"

__all__ = [
    "BandComplex",
    "Chart",
    "ChartCompatibilityError",
    "ChartKind",
    "ChartMap",
    "ChartMismatchError",
    "Form",
    "GaussianRational",
    "PairForm",
    "RelPairForm",
    "ScalarExpr",
    "UnsupportedScenarioError",
    "VectorField",
    "affine",
    "affine_complex",
    "gq",
    "identity_map",
    "torus",
    "torus_complex",
    "__version__",
]
