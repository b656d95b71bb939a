"""Skyrme energies, topological sectors, and holonomy on a lattice 3-torus."""

from .algebra import (
    LieAlgebra,
    Su2Embedding,
    certification_report,
    direct_sum,
    group_exp,
    group_log,
    normalizing_constant,
    parse_algebra,
    primitive_su2,
    theta_density,
)
from .holonomy import (
    CubicalCover,
    DevelopingAtlas,
    HolonomyRep,
    build_atlas,
    develop_cube,
    gauge_from_holonomy,
    holonomy_rep,
    path_transport,
)
from .invariants import (
    SectorInvariants,
    invariant_of_connection,
    one_dim_invariant,
    reference_map,
    sector_of,
    topological_charge,
)
from .lattice import (
    AlgebraOneForm,
    GroupField,
    TorusLattice,
    gauge_transform,
    log_derivative,
    make_hedgehog,
    make_random,
    make_winding,
    skyrme_energy_connection,
    skyrme_energy_map,
    wedge_bracket,
)
from .minimize import (
    MinimizeOptions,
    MinimizeTrace,
    lattice_gradient,
    minimize_connection,
    minimize_map,
    seed_field,
)

__version__ = "0.1.0"
