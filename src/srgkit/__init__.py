"""srgkit: exact construction and verification of strongly regular graphs
from finite geometry and small permutation actions.

Layers, bottom up:

- :mod:`srgkit.gf` — finite fields as dense lookup tables, with norms,
  traces, characters, and closed-form solution counts for standard forms.
- :mod:`srgkit.geometry` — formed spaces (symplectic, quadratic,
  hermitian) over those fields: point/subspace enumeration, tangency and
  perpendicularity tests, flags of projective planes.
- :mod:`srgkit.graphcore` — immutable bitset graphs with brute-force
  strong-regularity and distance-regularity verification, plus graph6 and
  edge-list serialization.
- :mod:`srgkit.orbitals` — permutation actions on points, pair-orbit
  partitions, orbital graphs, and direct intersection-number counting.
- :mod:`srgkit.schemes` — the exact intersection-number calculus: numeric
  tensors from arrays, graphs, and partitions; symbolic tensors over
  rational-function fields; coefficient-extraction certificates.
- :mod:`srgkit.audit` — the seven-relation audit every tensor passes, on
  integer forms over one common denominator; imported on first use.
- :mod:`srgkit.families` — named graph families built from the layers
  above, each paired with closed-form parameters where one exists.
- :mod:`srgkit.cli` — the ``srgkit`` command: gen, verify, scheme,
  table1, orbitals.

Everything is exact: integers, fractions, and polynomials over the
rationals; no floating point is used anywhere.
"""

from .families import (
    FamilyId,
    OrbitalClassification,
    ScaleGuardError,
    build_NO,
    build_NU,
    build_dual_polar_sp6,
    build_dual_polar_sp6_dist3,
    build_family,
    build_flag_orbitals,
    build_grassmann,
    build_hamming_orbital,
    build_johnson,
    build_orthogonal_orbitals,
    build_polar_complement,
    build_unitary_orbitals,
    params_closed_form,
    parse_family_spec,
)
from .gf import Field, FieldElement, field_of_order
from .graphcore import (
    Graph,
    IntersectionArray,
    RegularityFailure,
    SrgParams,
    build_graph,
    check_drg,
    check_srg,
    complement,
    distance_graph,
    from_edgelist,
    from_graph6,
    to_edgelist,
    to_graph6,
)
from .orbitals import (
    OrbitalPartition,
    PermGroupAction,
    compute_orbitals,
    orbital_graph,
    psl28_action,
)
from .schemes import (
    IntersectionTensor,
    dual_polar_symbolic,
    g2_symbolic,
    grassmann_f2,
    instantiate_tensor,
    srg_fusions,
    tensor_from_array,
    tensor_from_graph,
    tensor_from_orbital_partition,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyId",
    "Field",
    "FieldElement",
    "Graph",
    "IntersectionArray",
    "IntersectionTensor",
    "OrbitalClassification",
    "OrbitalPartition",
    "PermGroupAction",
    "RegularityFailure",
    "ScaleGuardError",
    "SrgParams",
    "build_NO",
    "build_NU",
    "build_dual_polar_sp6",
    "build_dual_polar_sp6_dist3",
    "build_family",
    "build_flag_orbitals",
    "build_graph",
    "build_grassmann",
    "build_hamming_orbital",
    "build_johnson",
    "build_orthogonal_orbitals",
    "build_polar_complement",
    "build_unitary_orbitals",
    "check_drg",
    "check_srg",
    "complement",
    "compute_orbitals",
    "distance_graph",
    "dual_polar_symbolic",
    "field_of_order",
    "from_edgelist",
    "from_graph6",
    "g2_symbolic",
    "grassmann_f2",
    "instantiate_tensor",
    "orbital_graph",
    "params_closed_form",
    "parse_family_spec",
    "psl28_action",
    "srg_fusions",
    "tensor_from_array",
    "tensor_from_graph",
    "tensor_from_orbital_partition",
    "to_edgelist",
    "to_graph6",
    "__version__",
]
