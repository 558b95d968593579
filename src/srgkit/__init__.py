"""srgkit: exact construction and verification of strongly regular graphs
from finite geometry and small permutation actions.

Layers, bottom up; each imports, at module level, only layers listed
before it:

- :mod:`srgkit.base` — what every layer shares: the record decorator,
  :class:`ScaleGuardError`, the default vertex budget,
  :class:`IntersectionArray`, and the one dense polynomial product and
  long division; it imports no other layer.
- :mod:`srgkit.gf` — finite fields as dense lookup tables on element
  indices: a field element is its index.
- :mod:`srgkit.geometry` — formed spaces (symplectic, quadratic,
  hermitian) over those fields: point/subspace enumeration, tangency and
  perpendicularity tests, the flags of a projective plane as (point,
  line) pairs, the reflections of a form as matrices, and the column
  kernel that applies a matrix to a whole point set by one gather (no
  permutation action: that is made above).
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
  above, each paired with closed-form parameters where one exists; it
  turns geometry's reflections into permutations for the pair orbits.
- :mod:`srgkit.cli` — the ``srgkit`` command: gen, verify, scheme,
  table1, orbitals.

The names in ``__all__`` are re-exported here, each resolved from its
layer on first access (PEP 562): ``import srgkit`` compiles no layer, and
a command compiles only the layers it runs.

Everything is exact: integers, fractions, and polynomials over the
rationals; no floating point is used anywhere.
"""

# each public name and the submodule that binds it at top level
_EXPORTS = {
    "Field": "gf",
    "ScaleGuardError": "base",
    "field_of_order": "gf",
    "Graph": "graphcore",
    "IntersectionArray": "base",
    "RegularityFailure": "graphcore",
    "SrgParams": "graphcore",
    "build_graph": "graphcore",
    "check_drg": "graphcore",
    "check_srg": "graphcore",
    "complement": "graphcore",
    "distance_graph": "graphcore",
    "from_edgelist": "graphcore",
    "from_graph6": "graphcore",
    "to_edgelist": "graphcore",
    "to_graph6": "graphcore",
    "OrbitalPartition": "orbitals",
    "PermGroupAction": "orbitals",
    "compute_orbitals": "orbitals",
    "orbital_graph": "orbitals",
    "psl28_action": "orbitals",
    "IntersectionTensor": "schemes",
    "dual_polar_symbolic": "schemes",
    "g2_symbolic": "schemes",
    "grassmann_f2": "schemes",
    "instantiate_tensor": "schemes",
    "srg_fusions": "schemes",
    "tensor_from_array": "schemes",
    "tensor_from_graph": "schemes",
    "tensor_from_orbital_partition": "schemes",
    "FamilyId": "families",
    "OrbitalClassification": "families",
    "build_NO": "families",
    "build_NU": "families",
    "build_dual_polar_sp6": "families",
    "build_dual_polar_sp6_dist3": "families",
    "build_family": "families",
    "build_flag_orbitals": "families",
    "build_grassmann": "families",
    "build_hamming_orbital": "families",
    "build_johnson": "families",
    "build_orthogonal_orbitals": "families",
    "build_polar_complement": "families",
    "build_unitary_orbitals": "families",
    "params_closed_form": "families",
    "parse_family_spec": "families",
}

__version__ = "0.1.0"

__all__ = [
    "FamilyId",
    "Field",
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


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
