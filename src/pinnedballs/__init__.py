"""Pinned-ball pseudo-collision dynamics and collision-count bounds."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    KissingNumberInfo,
    LatticeBoundReport,
    kissing_number,
    lattice_bound,
    lower_bound_reference,
    max_collisions_bound,
    per_edge_bound,
    reference_bounds,
    resolve_tau,
    superadditivity_check,
    tree_bound,
)
from .dynamics import (
    Schedule,
    SimulationTrace,
    collide,
    collide_as_folding,
    decompose_state,
    run_schedule,
)
from .foldings import (
    FoldingSchedule,
    HalfSpace,
    OrbitResult,
    adversarial_two_halfplanes,
    fold,
    fold_into_cone,
    orbit,
)
from .geometry import (
    BallConfiguration,
    CollisionDirection,
    ContactGraph,
    StateVector,
    collision_direction,
    full_contact_graph,
    interior_witness,
    normalize_system,
    validate_configuration,
)
from .lattice import (
    ConvergentPair,
    LatticePoint,
    QuadraticInteger,
    check_column_conditions,
    contact_edges,
    exact_alpha_certificate,
    exact_determinant,
    lattice_alpha_lower_bound,
    lattice_configuration,
    lattice_points_in_radius,
    quadratic_lower_bound,
    sqrt3_convergents,
    verify_det_bound,
)
from .rigidity import (
    AlphaReport,
    StressCertificate,
    alpha,
    alpha_star,
    spherical_vertex_check,
    stress_certificate,
)
from .search import (
    SearchResult,
    VelocitySweep,
    compare_with_bound,
    exhaustive_max_collisions,
    greedy_schedule,
    sample_unit_state,
    velocity_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
