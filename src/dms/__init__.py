"""Discrete Morse structures on cell complexes, with connected-sum
composition and surface decomposition of perfect gradient fields."""

from .cellcomplex import (
    Cell,
    Complex,
    SurfaceInfo,
    build_poset,
    build_simplicial,
    euler_characteristic,
    local_neighborhood,
    verify_closed_surface,
)
from .homology import BettiVector, betti_mod2
from .morsefield import (
    GradientPath,
    MorseCounts,
    MorseFunction,
    VectorField,
    critical_cells,
    induced_field,
    is_perfect,
    make_injective,
    synthesize_function,
    trace_1path_tree,
    trace_2path,
    validate_field,
    validate_function,
)
from .surgery import (
    BisectionRecord,
    InnerCopy,
    TubeRegion,
    bisect_2cell,
    bisect_edge,
    build_prism_over_boundary,
    compose,
    separate_critical_cells,
    shrink_closed_star,
)
from .fixtures import (
    genus_surface,
    pillow,
    projective_plane6,
    tetrahedron,
    torus7,
    tree_cotree_field,
)

__version__ = "0.1.0"
