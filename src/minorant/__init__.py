"""Exact constructive solvers for affine-minorant existence theorems, with
machine-checkable certificates.

Layers:

* :mod:`minorant.core` — vectors, max-affine functions, polyhedral
  sublinear functionals, affine/linear maps
* :mod:`minorant.gauge` — the epigraph gauge of a shifted convex function
* :mod:`minorant.lp` — self-contained dense simplex (Dantzig pricing,
  Bland fallback)
* :mod:`minorant.rng` — the seeded SplitMix64 generator
* :mod:`minorant.scan` — the pairwise midpoint hypothesis scan
* :mod:`minorant.mok` — linear functionals tight over finite sets
* :mod:`minorant.synth` — affine minorants tight over scored sets,
  finite sets, polytopes, and affine compositions
* :mod:`minorant.hbl` — multi-space product reductions
* :mod:`minorant.harness` — seeded generators and independent oracles
* :mod:`minorant.cli` — JSON batch front end
"""

from .core import (
    AffineMap,
    AffineTransform,
    ConvexOracle,
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidInput,
    LinearMap,
    MaxAffineFn,
    PolyhedralSublinear,
    Polytope,
    ShiftedFn,
    ToleranceConfig,
    eval_functional,
    eval_max_affine,
    subgradient_max_affine,
)
from .gauge import Branch, GaugeValue, eval_gauge, gauge_is_zero, perspective, shift
from .mok import MokCertificate, check_midpoint, solve_mok
from .synth import (
    FiniteScoredSet,
    LiftedPolytope,
    SynthCertificate,
    support_at_point,
    synth_affine_from_scored_set,
    synth_composed_minorant,
    synth_tight_minorant,
)
from .hbl import HblCertificate, HblInstance, solve_hbl_jk, solve_hbl_n

__version__ = "0.1.0"
