"""Orbit labels and exact decompositions for nilpotent framed cyclic quivers.

The package classifies, enumerates, translates and verifies orbit labels in
the framed (cyclic) nilpotent cone: partition combinatorics and Frobenius
coordinates, residue vectors, circle diagrams, the striped-bipartition
labelling and its translation maps, exact-rational construction and
Krull-Remak-Schmidt decomposition of the representations themselves, and
the finite/tame/wild classification of the underlying algebras.

All values are immutable after construction and all operations are pure
functions, so everything is safe to use from concurrent contexts.
"""

from .partitions import (
    Bipartition,
    FrobeniusPartition,
    Multipartition,
    Partition,
    enumerate_partitions,
)
from .residues import (
    DimensionVector,
    OrbitLabel,
    column_residue,
    delta,
    dim_framed,
    ell_quotient_core,
    enumerate_orbit_labels,
    from_core_quotient,
    residue,
    run_vector,
    runs_vector,
    shifted_residue,
    zero_hits,
)
from .circle_diagrams import (
    CircleDiagram,
    FrobeniusCircleDiagram,
    bounded_circle_diagrams,
    diagram_from_json,
    frobenius_diagram_of_partition,
    to_ascii,
    to_dot,
    from_dot,
)
from .orbit_maps import (
    StripedBipartition,
    bipartition_as_striped,
    bipartition_to_label,
    diagrams_of_label,
    enumerate_striped,
    label_of_diagrams,
    label_to_bipartition,
    removable_rows_cyclic,
    signature,
    striped_from_label,
    striped_label,
    striped_to_diagrams,
)
from .rep_builder import (
    QuiverRep,
    build_chain,
    build_framed,
    build_framed_jordan,
    build_label_rep,
    build_striped,
    conjugate,
    direct_sum,
    random_base_change,
)
from .decomposer import (
    Decomposition,
    chain_multiplicities,
    decompose_enhanced,
    framed_jordan_type,
    isomorphic,
)
from .linalg import RationalMatrix
from .rep_type import (
    CoveringWindow,
    RepType,
    classify,
    min_tits_over_box,
    tits_form,
    wildness_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
