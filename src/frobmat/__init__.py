"""Matroids from gain graphs over finite groups with Frobenius partitions.

The package builds finite groups as Cayley tables, enumerates their Frobenius
partitions, attaches group-valued gains to multigraphs, and realizes the
elementary lift of the quotient frame matroid that the partition selects. It
also produces GF(q) incidence-matrix representations for affine-group gains
and recovers the partition back from a lift over a complete gain graph.
"""

from .biased import (
    BiasedGraph,
    ClassLiftOracle,
    FrameOracle,
    GraphicOracle,
    LiftOracle,
    RankOracle,
    brylawski_lift,
    frame_circuits,
    is_linear_class,
    matroid_axiom_check,
    minimal_dependent_sets,
)
from .errors import LimitExceeded, RecoveryError
from .gaingraph import (
    Edge,
    GainGraph,
    Walk,
    apply_switching,
    complete_gain_graph,
    enumerate_cycles,
    gain_of_walk,
    is_balanced_cycle,
    quotient_gains,
)
from .groups import (
    FiniteGroup,
    FrobeniusPartition,
    QuotientMap,
    Subgroup,
    frobenius_partitions,
    from_table,
    is_malnormal,
    is_normal,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_affine,
    make_inversion_extension,
    make_semidirect,
    quotient,
    subgroups,
    validate_partition,
)
from .lifts import (
    FrobeniusContext,
    LiftedMatroid,
    bases,
    build_spike_graph,
    circuits,
    class_member,
    class_member_walks,
    contract,
    cyclic_covering_pair,
    delete,
    is_elementary_lift,
    linear_class,
    verify_spike,
)
from .recovery import edge_bundle, recover_partition
from .represent import (
    AffinePair,
    FieldMatrix,
    VectorOracle,
    affine_index,
    affine_pair,
    incidence_matrix,
    matrix_rank_gf,
    scale_gains,
    switching_projective_check,
    verify_representation,
)
