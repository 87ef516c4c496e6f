"""Computations with finite Alexandroff spaces (finite T0 posets).

Cores via beat-point dismantling, homotopy-equivalence decisions,
function-space topology checks and order-complex homology, plus a small
CLI (``finspace``).  The brute-force oracles that check these live with
the tests, in ``tests/helpers.py``.
"""

from .errors import (
    CycleError,
    DuplicateLabel,
    EmptyPoset,
    FinspaceError,
    GuardExceeded,
    HeightExceeded,
    NotABeatPoint,
    NotATopology,
    NotDownSet,
    ParseError,
    UnknownLabel,
    ValidationError,
)
from .generators import antichain, chain, crown, fence, khalimsky_interval, random_poset, spider
from .homotopy import (
    IsoWitness,
    are_homotopy_equivalent,
    are_isomorphic,
    contains_crown,
    contractible_height1,
    is_contractible,
)
from .maps import (
    FunctionPoset,
    MonotoneMap,
    compose,
    constant,
    enumerate_monotone,
    has_fpp,
    homotopy_classes,
    identity,
    is_homotopic,
    is_retraction,
    min_contraction_chain,
)
from .poset import (
    ClassifyRecord,
    PointedPoset,
    Poset,
    Preorder,
    classify,
    kolmogorov_quotient,
)
from .reduction import (
    DismantlingTrace,
    RetractionStep,
    beat_points,
    bulk_down,
    bulk_up,
    core,
    core_mask,
    down_beat_points,
    is_core,
    remove_beat_point,
    standard_sequence,
    up_beat_points,
    verify_strong_deformation,
)
from .simplicial import (
    HomologyProfile,
    SimplicialComplex,
    chain_counts,
    homology,
    is_gamma_point,
    order_complex,
    poset_homology,
)
from .topology import (
    SetFamily,
    alexandroff_topology,
    compact_open_opens,
    compact_open_subbasis,
    count_down_sets,
    generate_topology,
    hom_set_interval,
    specialization_order,
)

__version__ = "0.1.0"
