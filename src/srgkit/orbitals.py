"""Small permutation actions: pair-orbit partitions, orbital graphs, and
direct intersection-number counting.

Everything here is elementary orbit computation — permutations are plain
image tuples, groups are never represented beyond their generators, and the
pair-orbit partition is found by breadth-first closure.  That is all the
product-action family and the oracle cross-checks need at degree <= 1000.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from .gf import make_field
from .graphcore import Graph

__all__ = [
    "OrbitalPartition",
    "PermGroupAction",
    "compute_orbitals",
    "intersection_number_direct",
    "load_gens",
    "mulclose",
    "orbital_graph",
    "psl28_action",
    "save_gens",
]


@dataclass(frozen=True)
class PermGroupAction:
    """A permutation group given by generators acting on {0..degree-1}."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree or sorted(g) != list(range(self.degree)):
                raise ValueError("generator is not a bijection on the points")

    def orbit(self, point: int) -> set[int]:
        seen = {point}
        frontier = [point]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree


@dataclass(frozen=True)
class OrbitalPartition:
    """Orbits of a transitive action on ordered pairs.

    class_of is row-major over pairs: class_of[x * degree + y].  It is a
    tuple when :func:`compute_orbitals` builds it (a generator file may give
    any rank), and ``bytes``, one byte per pair, for the invariant
    classifications of :mod:`srgkit.families`, whose rank stays below 256.
    Class 0 is the diagonal.  paired[c] is the class of the transposed pairs
    of class c; reps[c] is a representative pair with first coordinate 0.
    """

    degree: int
    rank: int
    class_of: tuple[int, ...] | bytes
    paired: tuple[int, ...]
    reps: tuple[tuple[int, int], ...]
    suborbit_lengths: tuple[int, ...]

    def pair_class(self, x: int, y: int) -> int:
        return self.class_of[x * self.degree + y]

    def is_self_paired(self, c: int) -> bool:
        return self.paired[c] == c


def compute_orbitals(action: PermGroupAction) -> OrbitalPartition:
    """Pair-orbit partition of a transitive action, by BFS closure.

    Classes are numbered by the first pair (0, y) reached in y order, so
    the diagonal is always class 0 and the numbering is deterministic.
    """
    if not action.is_transitive():
        raise ValueError("action is not transitive")
    n = action.degree
    gens = action.generators
    class_of = [-1] * (n * n)
    reps: list[tuple[int, int]] = []
    for y0 in range(n):
        if class_of[y0] != -1:  # pair (0, y0)
            continue
        c = len(reps)
        reps.append((0, y0))
        class_of[y0] = c
        frontier = [(0, y0)]
        while frontier:
            x, y = frontier.pop()
            for g in gens:
                gx, gy = g[x], g[y]
                code = gx * n + gy
                if class_of[code] == -1:
                    class_of[code] = c
                    frontier.append((gx, gy))
    if any(c == -1 for c in class_of):
        raise AssertionError("pair BFS left pairs unclassified")
    rank = len(reps)
    paired = tuple(class_of[y * n + x] for x, y in reps)
    lengths = [0] * rank
    for y in range(n):
        lengths[class_of[y]] += 1
    return OrbitalPartition(
        degree=n,
        rank=rank,
        class_of=tuple(class_of),
        paired=paired,
        reps=tuple(reps),
        suborbit_lengths=tuple(lengths),
    )


def orbital_graph(partition: OrbitalPartition, cls: int) -> Graph:
    """Undirected graph whose edges are class ``cls`` united with its pair."""
    if not 0 <= cls < partition.rank:
        raise ValueError(f"no class {cls}")
    if cls == 0:
        raise ValueError("the diagonal class has no graph")
    wanted = {cls, partition.paired[cls]}
    n = partition.degree
    class_of = partition.class_of
    rows = []
    for x in range(n):
        base = x * n
        row = 0
        for y in range(n):
            if class_of[base + y] in wanted:
                row |= 1 << y
        rows.append(row)
    return Graph(rows, validate=False)


def intersection_number_direct(
    partition: OrbitalPartition, h: int, i: int, j: int
) -> int:
    """p_ij^h: for a pair (x, y) of class h, the number of z with (x, z)
    in class i and (z, y) in class j.

    Counted at the stored representative and re-counted at a second
    representative when the class has more than one pair, as insurance
    against a malformed partition.
    """
    for c in (h, i, j):
        if not 0 <= c < partition.rank:
            raise ValueError(f"no class {c}")
    n = partition.degree
    class_of = partition.class_of

    def count_at(x: int, y: int) -> int:
        base = x * n
        return sum(
            1
            for z in range(n)
            if class_of[base + z] == i and class_of[z * n + y] == j
        )

    x0, y0 = partition.reps[h]
    value = count_at(x0, y0)
    second = next(
        (
            (p // n, p % n)
            for p, c in enumerate(partition.class_of)
            if c == h and (p // n, p % n) != (x0, y0)
        ),
        None,
    )
    if second is not None:
        check = count_at(*second)
        if check != value:
            raise AssertionError(
                f"p_{i}{j}^{h} differs between representatives: "
                f"{value} vs {check}"
            )
    return value


# ---------------------------------------------------------------------------
# Generator file IO
# ---------------------------------------------------------------------------


def save_gens(action: PermGroupAction, path: str | Path) -> None:
    """Write "degree g" then one image line per generator."""
    lines = [f"{action.degree} {len(action.generators)}"]
    for g in action.generators:
        lines.append(" ".join(str(x) for x in g))
    Path(path).write_text("\n".join(lines) + "\n")


def load_gens(path: str | Path) -> PermGroupAction:
    """Read the format written by save_gens."""
    tokens = Path(path).read_text().split("\n")
    header = tokens[0].split()
    if len(header) != 2:
        raise ValueError("bad header: expected 'degree generator-count'")
    degree, count = int(header[0]), int(header[1])
    gens = []
    for line in tokens[1 : count + 1]:
        images = tuple(int(x) for x in line.split())
        gens.append(images)
    if len(gens) != count:
        raise ValueError("generator count does not match header")
    return PermGroupAction(degree, tuple(gens))


# ---------------------------------------------------------------------------
# Group closure (small groups only)
# ---------------------------------------------------------------------------


def mulclose(
    generators: list[tuple[int, ...]], cap: int = 100_000
) -> set[tuple[int, ...]]:
    """All products of the generators; error beyond ``cap`` elements."""
    if not generators:
        raise ValueError("need at least one generator")
    identity = tuple(range(len(generators[0])))
    group = {identity}
    frontier = [identity]
    while frontier:
        base = frontier.pop()
        for g in generators:
            product = tuple(base[x] for x in g)
            if product not in group:
                if len(group) >= cap:
                    raise ValueError(f"group exceeds {cap} elements")
                group.add(product)
                frontier.append(product)
    return group


# ---------------------------------------------------------------------------
# The degree-28 and degree-784 actions
# ---------------------------------------------------------------------------


def _projective_line_64():
    """PG(1, 64) as 0..63 (finite, by element index) plus 64 for infinity,
    the embedded copy of GF(8), and the Frobenius x -> x^8."""
    field = make_field(2, 6)
    sub, embed = field.subfield(3)
    frob3 = [field.pow_index(a, 8) for a in range(64)]
    return field, set(embed), frob3


def _moebius_generators(field, embedded_subfield):
    """Permutations of PG(1,64) generating PSL_2(8) (coefficients in the
    embedded GF(8)) plus the squaring field automorphism."""
    INF = field.q
    add, mul, inv = field.add_table, field.mul_table, field.inv_table

    def shift(x):  # x + 1
        return INF if x == INF else add[x][1]

    mult = sorted(a for a in embedded_subfield if a > 1)[0]
    # least embedded subfield element beyond 0 and 1: a generator of the
    # order-7 multiplicative group of GF(8)

    def scale(x):  # x * t
        return INF if x == INF else mul[x][mult]

    def invert(x):  # 1 / x
        if x == INF:
            return 0
        if x == 0:
            return INF
        return inv[x]

    def square(x):  # the field automorphism x -> x^2
        return INF if x == INF else mul[x][x]

    domain = list(range(field.q)) + [INF]
    return [tuple(f(x) for x in domain) for f in (shift, scale, invert, square)]


@functools.lru_cache(maxsize=1)
def psl28_action() -> tuple[PermGroupAction, PermGroupAction]:
    """The 2-transitive degree-28 action and the rank-4 degree-784 product
    action built from it.

    The 28 points are the unordered Frobenius-conjugate pairs {x, x^8} of
    projective-line points over GF(64) lying outside the GF(8) subline.
    Generators: three Moebius maps with subfield coefficients (together of
    order 504) plus the squaring automorphism (extending to order 1512).
    The 784-point group is generated by first-coordinate copies, the
    diagonal squaring map, and the coordinate swap; it is accepted only
    with pair rank exactly 4.
    """
    field, embedded, frob3 = _projective_line_64()
    INF = field.q
    outside = [x for x in range(field.q) if x not in embedded]
    points = sorted({(min(x, frob3[x]), max(x, frob3[x])) for x in outside})
    if len(points) != 28:
        raise AssertionError(f"{len(points)} Frobenius pairs, expected 28")
    point_index = {p: i for i, p in enumerate(points)}

    line_maps = _moebius_generators(field, embedded)

    def induced(perm):
        """Action of a line permutation on the 28 Frobenius pairs."""
        images = []
        for a, b in points:
            ia, ib = perm[a], perm[b]
            if INF in (ia, ib) or ia in embedded or ib in embedded:
                raise AssertionError("map does not preserve the point set")
            images.append(point_index[(min(ia, ib), max(ia, ib))])
        return tuple(images)

    moebius = [induced(p) for p in line_maps[:3]]
    squaring = induced(line_maps[3])
    if len(mulclose(moebius)) != 504:
        raise AssertionError("Moebius maps do not close to order 504")
    if len(mulclose(moebius + [squaring])) != 1512:
        raise AssertionError("adding the automorphism must reach order 1512")
    small = PermGroupAction(28, tuple(moebius + [squaring]))
    if compute_orbitals(small).rank != 2:
        raise AssertionError("the 28-point action must be 2-transitive")

    def left(perm):  # g x id on ordered pairs
        return tuple(perm[u // 28] * 28 + u % 28 for u in range(784))

    diag_sq = tuple(squaring[u // 28] * 28 + squaring[u % 28] for u in range(784))
    swap = tuple((u % 28) * 28 + u // 28 for u in range(784))
    big_gens = tuple([left(g) for g in moebius] + [diag_sq, swap])
    big = PermGroupAction(784, big_gens)
    if compute_orbitals(big).rank != 4:
        raise AssertionError("the product action must have rank 4")
    return small, big
