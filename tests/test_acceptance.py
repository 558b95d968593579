"""End-to-end acceptance run over the full verification matrix.

Each numbered test covers one acceptance criterion, asserts its timing
budget, and prints a single PASS/FAIL summary line directly to the real
stdout (bypassing capture) so the transcript always carries a
per-criterion verdict.  Two deliberately failing sub-claims are kept as
strict xfails: the literal statements are recorded, shown to be false by
construction, and the corrected statements are asserted in the main
criterion tests.  All equality checks are exact integer or rational
identities; there are no tolerances anywhere.
"""

import functools
import time

import oracles
import pytest
from conftest import announce as _announce

from srgkit.families import (
    FamilyId,
    build_NO,
    build_NU,
    build_dual_polar_sp6,
    build_flag_orbitals,
    build_grassmann,
    build_hamming_orbital,
    build_johnson,
    build_orthogonal_orbitals,
    build_polar_complement,
    build_unitary_orbitals,
    flag_M,
    grassmann_intersection_array,
    hamming_M,
    hamming_classification,
    hamming_srg_criterion,
    params_closed_form,
)
from srgkit.graphcore import (
    IntersectionArray,
    RegularityFailure,
    SrgParams,
    check_drg,
    check_srg,
    distance_graph,
)
from srgkit.orbitals import compute_orbitals, orbital_graph, psl28_action
from srgkit.schemes import (
    InfeasibleArrayError,
    IntersectionTensor,
    RatFunc,
    dual_polar_symbolic,
    g2_symbolic,
    grassmann_f2,
    instantiate_tensor,
    tensor_from_array,
    tensor_from_graph,
    tensor_from_orbital_partition,
)

Q = RatFunc.gen()


def acceptance(number: int, label: str):
    """Wrap a criterion test: print one PASS/FAIL/SKIP line, always."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                status = "SKIP" if isinstance(e, pytest.skip.Exception) else "FAIL"
                _announce(f"acceptance {number}", status, f"{label} — {e}")
                raise
            elapsed = time.perf_counter() - started
            suffix = f" — {detail}" if detail else ""
            _announce(
                f"acceptance {number}",
                "PASS",
                f"{label}{suffix} ({elapsed:.2f}s)",
            )

        return wrapper

    return decorate


def srg_array(params: SrgParams) -> IntersectionArray:
    """Diameter-2 intersection array of a (primitive) strongly regular graph."""
    return IntersectionArray(
        (params.k, params.k - params.lam - 1), (1, params.mu)
    )


# ---------------------------------------------------------------------------
# 1. triple-system graphs meeting in one point
# ---------------------------------------------------------------------------


@acceptance(1, "3-subset graphs J(7,3,1) and J(10,3,1)")
def test_acceptance_01_johnson_one_point_graphs():
    results = []
    for n, expected in ((7, (35, 18, 9, 9)), (10, (120, 63, 30, 36))):
        started = time.perf_counter()
        verdict = check_srg(build_johnson(n, 1))
        elapsed = time.perf_counter() - started
        assert verdict == SrgParams(*expected)
        assert elapsed < 1.0
        results.append(f"n={n}: {verdict} in {elapsed:.2f}s")
    return "; ".join(results)


# ---------------------------------------------------------------------------
# 2. projective-plane flag classes
# ---------------------------------------------------------------------------


@acceptance(2, "flag pair classes of PG(2,q), q in {2,3,4,5}")
def test_acceptance_02_flag_classes():
    started = time.perf_counter()
    for q in (2, 3, 4, 5):
        cls = build_flag_orbitals(q)
        assert cls.partition.suborbit_lengths == (1, 2 * q, 2 * q * q, q**3)
        counted = tuple(
            tuple(int(cls.tensor.p[i][j][j]) for j in (1, 2, 3))
            for i in (1, 2, 3)
        )
        assert counted == flag_M(q)
    verdict = check_srg(build_flag_orbitals(4).graphs[2])
    assert verdict == SrgParams(105, 32, 4, 12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    return f"class-2 graph at q=4: {verdict}; matrices match at q=2..5"


# ---------------------------------------------------------------------------
# 3. nonsingular hermitian points, tangency adjacency
# ---------------------------------------------------------------------------


@acceptance(3, "hermitian tangency graphs in dimensions 3 and 4 over F_9")
def test_acceptance_03_unitary_graphs():
    started = time.perf_counter()
    details = []
    for n, max_v in ((3, 2000), (4, 2000)):
        cls = build_unitary_orbitals(n, 3, max_v=max_v)
        expected = params_closed_form(FamilyId.make("NU", n=n, q=3))
        verdict = check_srg(cls.graphs[1])
        assert verdict == expected
        # the norm-one class is exactly the tangency graph
        assert cls.graphs[1] == build_NU(n, 3, max_v=max_v)
        # perpendicularity and the remaining class both fail, with witnesses
        for label in (0, 2):
            failure = check_srg(cls.graphs[label])
            assert isinstance(failure, RegularityFailure)
            assert failure.witness is not None
        details.append(f"n={n}: {verdict}")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    return "; ".join(details)


# ---------------------------------------------------------------------------
# 4. nonsingular orthogonal points in dimension 5 over F_5
# ---------------------------------------------------------------------------


@acceptance(4, "orthogonal tangency graphs, both point classes over F_5")
def test_acceptance_04_orthogonal_graphs():
    started = time.perf_counter()
    details = []
    for eps in ("+", "-"):
        cls = build_orthogonal_orbitals(2, 5, eps)
        expected = params_closed_form(FamilyId.make("NO", m=2, q=5, eps=eps))
        verdict = check_srg(cls.graphs[1])
        assert verdict == expected
        assert cls.graphs[1] == build_NO(2, 5, eps)
        # the non-perpendicular non-tangent class is not strongly regular
        failure = check_srg(cls.graphs[2])
        assert isinstance(failure, RegularityFailure)
        assert failure.witness is not None
        details.append(f"{eps}: {verdict}")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    return (
        "; ".join(details)
        + "; tangency-class uniqueness is tracked as a separate known-false claim"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the perpendicularity class is strongly regular as well — "
    "(325,60,15,10) and (300,65,10,15) — so tangency is not the unique "
    "strongly regular class in dimension 5 over the 5-element field",
)
def test_acceptance_04_sub_claim_tangency_is_only_srg_class():
    holds = True
    witnesses = []
    for eps in ("+", "-"):
        cls = build_orthogonal_orbitals(2, 5, eps)
        for label in cls.labels:
            if label == 1:
                continue
            verdict = check_srg(cls.graphs[label])
            if isinstance(verdict, SrgParams):
                holds = False
                witnesses.append(f"{eps} class {label}: {verdict}")
    _announce(
        "acceptance 4 (uniqueness sub-claim)",
        "XFAIL" if not holds else "UNEXPECTED PASS",
        "only the tangency class should be strongly regular; "
        + ("counterexamples: " + "; ".join(witnesses) if witnesses else "held"),
    )
    assert holds


# ---------------------------------------------------------------------------
# 5. polar complements and the symplectic dual polar graphs
# ---------------------------------------------------------------------------


@acceptance(5, "polar complements at q=2; symplectic dual polar at q=2,3")
def test_acceptance_05_polar_and_dual_polar():
    started = time.perf_counter()
    # complement of the 8-dimensional plus-type polar graph
    o8 = check_srg(build_polar_complement("O8+", 2))
    assert o8 == params_closed_form(FamilyId.make("polar-complement-O8+", q=2))
    assert o8 == SrgParams(135, 64, 28, 32)
    # complement of the 7-dimensional polar graph (its own closed form; the
    # 8-dimensional formula does not apply — see the xfail companion test)
    o7 = check_srg(build_polar_complement("O7", 2))
    assert o7 == params_closed_form(FamilyId.make("polar-complement-O7", q=2))
    assert o7 == SrgParams(63, 32, 16, 16)
    details = [f"O8+ complement: {o8}", f"O7 complement: {o7}"]
    # dual polar graphs: distance-regular, distance-3 graph strongly regular
    for q, expected_array in ((2, ((14, 12, 8), (1, 3, 7))), (3, ((39, 36, 27), (1, 4, 13)))):
        big_started = time.perf_counter()
        g = build_dual_polar_sp6(q)
        array = check_drg(g)
        assert array == IntersectionArray(*expected_array)
        d3 = check_srg(distance_graph(g, 3))
        assert d3 == params_closed_form(
            FamilyId.make("dual-polar-sp6-dist3", q=q)
        )
        big_elapsed = time.perf_counter() - big_started
        assert big_elapsed < 300.0
        details.append(f"q={q}: array {array}, distance-3 {d3}")
    elapsed = time.perf_counter() - started
    return "; ".join(details) + f" ({elapsed:.2f}s total)"


@pytest.mark.xfail(
    strict=True,
    reason="the displayed closed form for the 7-dimensional complement "
    "repeats the 8-dimensional one, which has 135 vertices at q=2; the "
    "constructed graph has 63 — the corrected form is verified in the "
    "main test",
)
def test_acceptance_05_sub_claim_o7_matches_eight_dim_formula():
    eight_dim = params_closed_form(FamilyId.make("polar-complement-O8+", q=2))
    verdict = check_srg(build_polar_complement("O7", 2))
    holds = verdict == eight_dim
    _announce(
        "acceptance 5 (displayed-form sub-claim)",
        "XFAIL" if not holds else "UNEXPECTED PASS",
        f"7-dim complement gives {verdict}, 8-dim formula gives {eight_dim}",
    )
    assert holds


# ---------------------------------------------------------------------------
# 6. symbolic tensor of the array {q(q+1), q^2, q^2; 1, 1, q+1}
# ---------------------------------------------------------------------------


@acceptance(6, "symbolic tensor of {q(q+1), q^2, q^2; 1, 1, q+1}")
def test_acceptance_06_symbolic_hexagon_array():
    started = time.perf_counter()
    rep = g2_symbolic()
    assert rep.p33[0] == Q**4 * (Q - 1)
    assert rep.p33[1] == Q**4 * (Q - 1)
    assert rep.p22[0] == Q**2 * (Q - 1)
    assert rep.p22[1] == (Q + 1) * (Q**2 - 1)
    v, k, lam, mu = rep.params
    assert v == (Q**6 - 1) / (Q - 1)
    assert k == Q**5
    assert lam == Q**4 * (Q - 1)
    assert mu == Q**4 * (Q - 1)
    assert rep.gamma3_criterion[0] is True
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    return (
        "p_33^1 = p_33^2 = q^4(q-1); p_22^1 = q^2(q-1); "
        "p_22^3 = (q+1)(q^2-1); distance-3 parameters "
        "((q^6-1)/(q-1), q^5, q^4(q-1), q^4(q-1))"
    )


# ---------------------------------------------------------------------------
# 7. symbolic dual polar tensor against the constructed graph
# ---------------------------------------------------------------------------


@acceptance(7, "symbolic dual polar tensor, e=1, against the built graph at q=2")
def test_acceptance_07_dual_polar_symbolic():
    started = time.perf_counter()
    rep = dual_polar_symbolic(1)
    assert rep.displayed["p33_1"] == Q**5 * (Q - 1)
    assert rep.displayed["p33_2"] == Q**5 * (Q - 1)
    assert rep.displayed["p22_1"] == Q**2 * (Q + 1) * (Q - 1)
    assert rep.displayed["p22_3"] == (Q**2 + Q + 1) * (Q**2 - 1)
    assert rep.p33_equal is True
    symbolic_at_2 = instantiate_tensor(rep.tensor, 2)
    brute = tensor_from_graph(build_dual_polar_sp6(2))
    assert symbolic_at_2 == brute
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    return "four displays exact; instantiation at q=2 equals the graph tensor"


# ---------------------------------------------------------------------------
# 8. quadratic coefficient extraction for the 3-subspace graphs
# ---------------------------------------------------------------------------


@acceptance(8, "p_22^1 - p_22^3 quadratic for 3-subspace graphs + certificate")
def test_acceptance_08_grassmann_quadratic():
    started = time.perf_counter()
    rep = grassmann_f2()
    assert rep.alphas[0] == (Q**2 + Q + 1) / (Q**2 * (Q - 1))
    assert rep.alphas[1] == (Q + 1) / (Q * (Q - 1))
    assert rep.alphas[2] == 1 / (Q - 1)
    assert rep.betas[0] == -Q * (Q**2 + Q + 1) / (Q - 1)
    assert rep.betas[1] == -(Q**3) * (Q + 1) / (Q - 1)
    assert rep.betas[2] == -(Q**5) / (Q - 1)
    assert rep.A == 1 / (Q**3 * (Q - 1) ** 2)
    num_b = -2 * Q**6 - 7 * Q**5 - 8 * Q**4 - Q**3 + 5 * Q**2 + 4 * Q + 1
    assert rep.B == num_b / (Q**2 * (Q - 1) ** 2 * (Q + 1) ** 2)
    num_c = (
        Q**9 + 5 * Q**8 + 9 * Q**7 + 5 * Q**6 - 6 * Q**5
        - 11 * Q**4 - 5 * Q**3 + 2 * Q**2 + 3 * Q + 1
    )
    assert rep.C == num_c / ((Q - 1) ** 2 * (Q + 1) ** 2)
    # brute-force comparison at the smallest case (n, q) = (6, 2)
    tensor = tensor_from_graph(build_grassmann(6, 2))
    brute_difference = tensor.p[1][2][2] - tensor.p[3][2][2]
    value = rep.f2.evaluate(2, 2**6)
    assert value == brute_difference == 15
    # nonvanishing certificate
    assert rep.scan_qs == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    assert rep.scan_ns == tuple(range(6, 13))
    assert rep.scan_all_nonzero is True
    assert all(all(flags) for flags in rep.positivity.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    return (
        "six affine coefficients and A, B, C exact; value 15 at (6,2) "
        "matches the graph; nonvanishing for q <= 16, 6 <= n <= 12"
    )


# ---------------------------------------------------------------------------
# 9. word-distance classes of length-3 words
# ---------------------------------------------------------------------------


@acceptance(9, "length-3 word distance classes; the four-letter alphabet")
def test_acceptance_09_hamming_classes():
    started = time.perf_counter()
    for d in (3, 4, 5):
        counted = hamming_classification(d)
        matrix = tuple(
            tuple(int(counted.tensor.p[i][j][j]) for j in (1, 2, 3))
            for i in (1, 2, 3)
        )
        assert matrix == hamming_M(d)
    assert [d for d in range(3, 13) if hamming_srg_criterion(d)] == [4]
    graph = build_hamming_orbital(4, 2)
    assert graph.n == 64
    verdict = check_srg(graph)
    assert verdict == SrgParams(64, 27, 10, 12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    return f"criterion singles out d=4; distance-2 graph: {verdict}"


# ---------------------------------------------------------------------------
# 10. relation audit over every tensor the suite produces
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def audited_tensors():
    """Every tensor the suite produces, by name, and why the 784-point
    partition is missing, if it is."""
    tensors = {}

    # from intersection arrays: every strongly regular target's
    # diameter-2 array, the hexagon-type array at small q, the dual polar
    # arrays, and the 3-subspace array
    srg_targets = {
        "J(7,3,1)": (35, 18, 9, 9),
        "J(10,3,1)": (120, 63, 30, 36),
        "flags q=4": (105, 32, 4, 12),
        "words d=4": (64, 27, 10, 12),
        "NU(3,3)": (63, 32, 16, 16),
        "NU(4,3)": (540, 224, 88, 96),
        "NU(3,4)": (208, 75, 30, 25),
        "NO(2,5)+": (325, 144, 68, 60),
        "NO(2,5)-": (300, 104, 28, 40),
        "O8+ complement": (135, 64, 28, 32),
        "O7 complement": (63, 32, 16, 16),
        "product action 784": (784, 243, 82, 72),
    }
    for name, params in srg_targets.items():
        tensors[f"array {name}"] = tensor_from_array(
            srg_array(SrgParams(*params))
        )
    for q in (2, 3, 4, 5):
        tensors[f"array hexagon q={q}"] = tensor_from_array(
            IntersectionArray((q * (q + 1), q**2, q**2), (1, 1, q + 1))
        )
    tensors["array dual polar q=2"] = tensor_from_array(
        IntersectionArray((14, 12, 8), (1, 3, 7))
    )
    tensors["array dual polar q=3"] = tensor_from_array(
        IntersectionArray((39, 36, 27), (1, 4, 13))
    )
    tensors["array 3-subspaces (6,2)"] = tensor_from_array(
        grassmann_intersection_array(6, 2)
    )

    # from constructed graphs (distance partitions)
    graphs = {
        "graph J(7,3,1)": build_johnson(7, 1),
        "graph J(10,3,1)": build_johnson(10, 1),
        "graph flags q=4": build_flag_orbitals(4).graphs[2],
        "graph words d=4": build_hamming_orbital(4, 2),
        "graph NU(3,3)": build_NU(3, 3),
        "graph NO(2,5)+": build_NO(2, 5, "+"),
        "graph NO(2,5)-": build_NO(2, 5, "-"),
        "graph O8+ complement": build_polar_complement("O8+", 2),
        "graph O7 complement": build_polar_complement("O7", 2),
        "graph dual polar q=2": build_dual_polar_sp6(2),
        "graph dual polar q=3": build_dual_polar_sp6(3),
        "graph 3-subspaces (6,2)": build_grassmann(6, 2),
    }
    for name, graph in graphs.items():
        tensors[name] = tensor_from_graph(graph)

    # from pair partitions: algebraic classifications and group orbitals
    tensors["classes NU(3,3)"] = build_unitary_orbitals(3, 3).tensor
    tensors["classes NO(2,5)+"] = build_orthogonal_orbitals(2, 5, "+").tensor
    tensors["classes NO(2,5)-"] = build_orthogonal_orbitals(2, 5, "-").tensor
    for q in (2, 3, 4, 5):
        tensors[f"classes flags q={q}"] = build_flag_orbitals(q).tensor
    tensors["classes words d=4"] = hamming_classification(4).tensor
    skipped = None
    try:
        _, big = psl28_action()
    except (ValueError, OSError) as e:
        skipped = f"784-point partition unavailable ({e})"
    else:
        tensors["classes product action 784"] = tensor_from_orbital_partition(
            compute_orbitals(big)
        )

    return tensors, skipped


@acceptance(10, "seven-relation audit over all produced tensors")
def test_acceptance_10_relation_audit():
    tensors, skipped = audited_tensors()
    for name, tensor in tensors.items():
        tensor.validate()  # raises naming the violated relation
        assert tensor.realizable is True, name
    detail = f"{len(tensors)} tensors validated, zero tolerance"
    if skipped:
        detail += f"; {skipped}"
    return detail


def test_relation_audit_agrees_with_the_scalar_oracle():
    """The integer audit and the scalar-arithmetic oracle give one verdict
    on every tensor of acceptance 10: both accept, or both name the same
    relation and indices."""
    tensors, _ = audited_tensors()
    for name, tensor in tensors.items():
        verdicts = []
        for audit in (IntersectionTensor.validate, oracles.audit_by_scalar_arithmetic):
            try:
                audit(tensor)
            except InfeasibleArrayError as e:
                verdicts.append(str(e))
            else:
                verdicts.append(None)
        assert verdicts[0] == verdicts[1], name


# ---------------------------------------------------------------------------
# 11. the 28-point action and its 784-point square
# ---------------------------------------------------------------------------


@acceptance(11, "28-point doubly transitive action and its 784-point square")
def test_acceptance_11_product_action():
    started = time.perf_counter()
    try:
        small, big = psl28_action()
    except (ValueError, OSError) as e:
        pytest.skip(f"generator construction failed: {e}")
    assert small.degree == 28
    small_partition = compute_orbitals(small)
    assert small_partition.rank == 2  # transitive of rank 2 = doubly transitive
    partition = compute_orbitals(big)
    assert partition.rank == 4
    the_class = next(
        c
        for c in range(1, partition.rank)
        if partition.suborbit_lengths[c] == 243
    )
    verdict = check_srg(orbital_graph(partition, the_class))
    assert verdict == SrgParams(784, 243, 82, 72)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    return f"rank 4 on 784 points; length-243 class: {verdict}"
