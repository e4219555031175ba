"""Fair integral base-flow solver.

Computes decreasingly-minimal (egalitarian) integral flows of bounded
base-flow polyhedra, with machine-checkable optimality certificates, an
existence theory for infinite bounds, and a k-edge-connected orientation
front-end.
"""

from .core import (
    Bounds,
    Chain,
    Digraph,
    NEG_INF,
    POS_INF,
    chain_classify,
    chain_entering_count,
    cut_in_sum,
    cut_net,
    cut_out_sum,
    decmin_compare,
)
from .setfn import (
    BaseOracle,
    SetFn,
    brute_extremize,
    cut_difference,
    envelope_setfn,
)
from .baseflow import (
    CertificateError,
    DualPotential,
    FeasCert,
    Infeasible,
    Instance,
    check_feasible,
    exchange_capacity,
    find_feasible,
    membership,
    min_cost_flow,
)
from .lupmin import (
    LupminResult,
    derive_bounds,
    extract_chain,
    lupmin_solve,
)
from .decmin import (
    PhaseTrace,
    SolveResult,
    compute_beta,
    newton_dinkelbach,
    predecmin_phase,
    solve_decmin,
    solve_min_cost_decmin,
    strip_tight,
)
from .existence import (
    BlockingCircuit,
    JumpStructure,
    build_jump_structure,
    finitize_bounds,
    has_blocking_dicircuit,
    improve_along_circuit,
)
from .orient import (
    MixedGraph,
    OrientationInfeasible,
    brute_orientations,
    decmin_orientation,
    encode,
)

__version__ = "0.1.0"
