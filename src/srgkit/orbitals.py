"""Small permutation actions: pair-orbit partitions, orbital graphs, and
direct intersection-number counting.

Everything here is elementary orbit computation — permutations are plain
image tuples, groups are never represented beyond their generators, and the
pair-orbit partition is found by breadth-first closure.  That is all the
product-action family and the oracle cross-checks need at degree <= 1000.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path

from .gf import make_field
from .graphcore import Graph, _class_rows, _pair_bytes

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
    """Orbits of a transitive action on ordered pairs, or the classes of a
    symmetric pair invariant.

    class_of is ``bytes``, one byte per pair, row-major:
    class_of[x * degree + y]; so there are at most 255 classes.  Class 0 is
    the diagonal.  paired[c] is the class of the transposed pairs of class
    c; reps[c] is a representative pair with first coordinate 0.
    """

    degree: int
    rank: int
    class_of: bytes
    paired: tuple[int, ...]
    reps: tuple[tuple[int, int], ...]
    suborbit_lengths: tuple[int, ...]

    def pair_class(self, x: int, y: int) -> int:
        return self.class_of[x * self.degree + y]

    def is_self_paired(self, c: int) -> bool:
        return self.paired[c] == c


_UNCLASSIFIED = 255  # the byte of a pair the orbit BFS has not reached


def _partition(n: int, class_of: bytes) -> OrbitalPartition:
    """The partition with pair classes ``class_of``.  Reps, suborbit lengths
    and pairing are read off the base row (0, y) and the first column
    (y, 0), so every class needs a representative in the base row."""
    base_row = class_of[:n]
    rank = max(base_row) + 1
    lengths = tuple(map(base_row.count, range(rank)))
    if 0 in lengths or class_of.translate(None, bytes(range(rank))):
        raise AssertionError("a pair class has no representative in the base row")
    reps = tuple((0, base_row.index(c)) for c in range(rank))
    paired = tuple(class_of[y * n] for _, y in reps)
    return OrbitalPartition(n, rank, class_of, paired, reps, lengths)


def compute_orbitals(action: PermGroupAction) -> OrbitalPartition:
    """Pair-orbit partition of a transitive action, by BFS closure.

    Classes are numbered by the first pair (0, y) reached in y order, so
    the diagonal is always class 0 and the numbering is deterministic.
    Raises ValueError past 255 classes, ScaleGuardError past 2^26 pairs.
    """
    if not action.is_transitive():
        raise ValueError("action is not transitive")
    n = action.degree
    gens = action.generators
    class_of = _pair_bytes(n, _UNCLASSIFIED)
    c = 0
    while (y0 := class_of.find(_UNCLASSIFIED, 0, n)) != -1:  # pair (0, y0)
        if c == _UNCLASSIFIED:
            raise ValueError(f"action has more than {_UNCLASSIFIED} pair orbits")
        class_of[y0] = c
        frontier = [y0]
        while frontier:
            x, y = divmod(frontier.pop(), n)
            for g in gens:
                code = g[x] * n + g[y]
                if class_of[code] == _UNCLASSIFIED:
                    class_of[code] = c
                    frontier.append(code)
        c += 1
    if class_of.find(_UNCLASSIFIED) != -1:
        raise AssertionError("pair BFS left pairs unclassified")
    return _partition(n, bytes(class_of))


def orbital_graph(partition: OrbitalPartition, cls: int) -> Graph:
    """Undirected graph whose edges are class ``cls`` united with its pair."""
    if not 0 <= cls < partition.rank:
        raise ValueError(f"no class {cls}")
    if cls == 0:
        raise ValueError("the diagonal class has no graph")
    wanted = (cls, partition.paired[cls])
    rows = _class_rows(partition.degree, partition.class_of, wanted)
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

    def count_at(pair: int) -> int:
        x, y = divmod(pair, n)
        row, column = class_of[x * n : (x + 1) * n], class_of[y::n]
        return sum(a == i and b == j for a, b in zip(row, column))

    x0, y0 = partition.reps[h]
    first = x0 * n + y0
    value = count_at(first)
    second = class_of.find(h)
    if second == first:
        second = class_of.find(h, first + 1)
    if second != -1:
        check = count_at(second)
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
    """Read the format written by save_gens, naming a bad entry's place."""
    lines = Path(path).read_text().split("\n")

    def ints(number: int) -> tuple[int, ...]:
        tokens = lines[number - 1].split()
        for k, token in enumerate(tokens, 1):
            if not re.fullmatch(r"[+-]?\d+", token):
                raise ValueError(
                    f"line {number}, token {k}: {token!r} is not an integer"
                )
        return tuple(map(int, tokens))

    header = ints(1)
    if len(header) != 2:
        raise ValueError("bad header: expected 'degree generator-count'")
    degree, count = header
    if degree < 1:
        raise ValueError(f"bad header: degree {degree} is below 1")
    gens = [ints(number) for number in range(2, min(count + 1, len(lines)) + 1)]
    if len(gens) != count:
        raise ValueError("generator count does not match header")
    for number, gen in enumerate(gens, 2):
        if len(gen) != degree:
            raise ValueError(
                f"line {number}: {len(gen)} entries, expected the degree {degree}"
            )
    for number in range(count + 2, len(lines) + 1):
        if lines[number - 1].strip():
            raise ValueError(
                f"line {number}: a generator line beyond the {count} "
                "the header counts"
            )
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
