"""Immutable bitset graphs and brute-force regularity engines.

Graphs store one Python integer per vertex as an adjacency bitset, so
common-neighbour counting is a word-parallel AND plus popcount.  On top of
that sit exhaustive verifiers: strong regularity (every vertex pair is
checked), BFS distance computation, distance-i graphs, complements, and
full distance-regularity checking with intersection-array extraction (by
the three-term identity on packed counter rows, or a BFS from every root).
The graph6 codec runs through binascii.  Graphs read off pair labels
share one label table, in which every pair is compared with its mirror.
Failures carry a witness (the first offending vertex or pair) rather than
a bare boolean.
"""

from __future__ import annotations

import binascii
import re
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import Callable, Iterator, Sequence

from .gf import ScaleGuardError

__all__ = [
    "Graph",
    "IntersectionArray",
    "RegularityFailure",
    "SrgParams",
    "bits",
    "build_graph",
    "check_drg",
    "check_srg",
    "complement",
    "distance_graph",
    "distance_masks",
    "from_edgelist",
    "from_graph6",
    "to_edgelist",
    "to_graph6",
]


# most ordered pairs, one byte each, that a pair table may hold: degree 8192
_PAIR_CAP = 1 << 26


def _pair_bytes(n: int, fill: int = 0) -> bytearray:
    """One ``fill`` byte per ordered pair of n points; the cap is checked first."""
    if n * n > _PAIR_CAP:
        raise ScaleGuardError(f"the pair partition of {n} points", n * n, _PAIR_CAP)
    return bytearray([fill]) * (n * n)


def bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@dataclass(frozen=True)
class SrgParams:
    """Parameters (v, k, lambda, mu) of a strongly regular graph.

    The standard feasibility identity k(k - lambda - 1) = (v - k - 1) mu is
    asserted on construction, so an SrgParams value is always feasible.
    """

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if min(self.v, self.k, self.lam, self.mu) < 0:
            raise ValueError("parameters must be nonnegative")
        if self.k * (self.k - self.lam - 1) != (self.v - self.k - 1) * self.mu:
            raise ValueError(
                f"infeasible parameter set {self.as_tuple()}: "
                "k(k-lam-1) != (v-k-1)mu"
            )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def complement_params(self) -> "SrgParams":
        v, k, lam, mu = self.as_tuple()
        return SrgParams(v, v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam)

    def __str__(self) -> str:
        return f"({self.v}, {self.k}, {self.lam}, {self.mu})"


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection array {b_0,...,b_{l-1}; c_1,...,c_l} of a distance-regular
    graph of diameter l.

    Construction validates b_i > 0, c_1 = 1, a_i = k - b_i - c_i >= 0 (with
    b_l = 0, c_0 = 0), and integrality of the valencies
    k_{i+1} = k_i b_i / c_{i+1}.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        b, c = tuple(self.b), tuple(self.c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if len(b) != len(c) or not b:
            raise ValueError("need equal-length, nonempty b and c sequences")
        if c[0] != 1:
            raise ValueError("c_1 must equal 1")
        if any(x <= 0 for x in b) or any(x <= 0 for x in c):
            raise ValueError("b_i and c_i must be positive")
        for i in range(self.diameter + 1):
            if self.a(i) < 0:
                raise ValueError(f"a_{i} = {self.a(i)} is negative")
        self.valencies()  # raises if some k_i is not a nonnegative integer

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    def a(self, i: int) -> int:
        """a_i = k - b_i - c_i with the conventions b_l = 0, c_0 = 0."""
        l = self.diameter
        bi = self.b[i] if i < l else 0
        ci = self.c[i - 1] if i >= 1 else 0
        return self.k - bi - ci

    def valencies(self) -> tuple[int, ...]:
        """(k_0, ..., k_l) with k_{i+1} = k_i b_i / c_{i+1}."""
        ks = [1]
        for i in range(self.diameter):
            num = ks[-1] * self.b[i]
            den = self.c[i]
            if num % den:
                raise ValueError(f"k_{i + 1} = {num}/{den} is not an integer")
            ks.append(num // den)
        return tuple(ks)

    @property
    def v(self) -> int:
        return sum(self.valencies())

    @classmethod
    def parse(cls, text: str) -> "IntersectionArray":
        """Parse "b0,b1,...;c1,c2,..." (optional braces/spaces)."""
        return cls(*_array_entries(text))

    def __str__(self) -> str:
        return "{%s; %s}" % (
            ",".join(map(str, self.b)),
            ",".join(map(str, self.c)),
        )


def _strict_int(text: str) -> int:
    """The integer spelled by ``text`` with surrounding spaces: an optional
    sign and ASCII digits only, so ``1_0`` and non-ASCII digits, which
    ``int`` takes, raise ValueError."""
    token = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def _array_entries(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The integer entries (b_0.., c_1..) of "b0,b1,...;c1,c2,...", with
    optional enclosing braces and spaces.  A ValueError names the first
    entry that is not an integer; the array's shape is not checked here."""
    body = text.strip()
    if body[:1] == "{" and body[-1:] == "}":
        body = body[1:-1]
    left, sep, right = body.partition(";")
    if not sep:
        raise ValueError("array needs the form 'b0,b1,...;c1,c2,...'")
    sides = []
    for side, first, part in (("b", 0, left), ("c", 1, right)):
        entries = []
        for i, s in enumerate(part.split(","), first):
            try:
                entries.append(_strict_int(s))
            except ValueError:
                raise ValueError(
                    f"array entry {side}{i} = {s.strip()!r} is not an integer"
                ) from None
        sides.append(tuple(entries))
    return sides[0], sides[1]


@dataclass(frozen=True)
class RegularityFailure:
    """A verification failure with the first offending witness."""

    reason: str
    witness: tuple | None = None
    expected: int | None = None
    found: int | None = None

    def __str__(self) -> str:
        parts = [self.reason]
        if self.witness is not None:
            parts.append(f"at {self.witness}")
        if self.expected is not None:
            parts.append(f"(expected {self.expected}, found {self.found})")
        return " ".join(parts)


class Graph:
    """An immutable simple graph: bitset adjacency rows plus vertex labels."""

    __slots__ = ("n", "rows", "labels")

    def __init__(
        self,
        rows: Sequence[int],
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ):
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", tuple(rows))
        if labels is None:
            labels = tuple(str(i) for i in range(self.n))
        else:
            labels = tuple(str(x) for x in labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != self.n:
            raise ValueError("label count differs from vertex count")
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _validate(self) -> None:
        rows = self.rows
        for u, row in enumerate(rows):
            # A negative row shifts to -1, so this also rejects it before
            # bits() could loop on it.
            if row >> self.n:
                raise ValueError(f"row {u} has bits beyond the vertex range")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
            for v in bits(row):
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def neighbors(self, u: int) -> list[int]:
        return list(bits(self.rows[u]))

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for off in bits(row):
                yield (u, u + 1 + off)

    def relabel(self, labels: Sequence[str]) -> "Graph":
        return Graph(self.rows, labels, validate=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def build_graph(
    vertices: Sequence,
    adjacent: Callable,
    labels: Callable | None = None,
) -> Graph:
    """Build a graph from a vertex list and a symmetric, irreflexive
    adjacency predicate.

    The predicate is evaluated on every ordered pair into one label table
    (:func:`_label_table`), which compares every pair with its mirror, so a
    reflexive vertex and the first asymmetric pair are refused by name.
    The table holds one byte per ordered pair: more than 2^26 pairs (8192
    vertices) raise ScaleGuardError.
    """

    def row_of(i: int) -> bytes:
        row = bytes(map(bool, map(adjacent, repeat(vertices[i]), vertices)))
        if row[i]:
            raise ValueError(f"predicate is reflexive at vertex {i}")
        return row

    names = list(map(labels or str, vertices))
    return _label_graph(len(vertices), row_of, 1, names, "predicate", ValueError)


def _label_table(n: int, row_of, subject="pair invariant", error=AssertionError):
    """The class of every ordered pair of n points, one byte each, row-major,
    and the labels found off the diagonal, ascending.

    ``row_of(i)`` gives the labels of the pairs (i, 0), ..., (i, n - 1),
    ints in range(256); the label of (i, i) is ignored.  The diagonal is
    class 0 and label l is class 1 + its rank.  Every pair (i, j) is
    compared with (j, i), and the first asymmetric pair in row-major order
    is named by ``error``.  More than 255 labels raise ValueError.
    """
    table = _pair_bytes(n)
    unseen = bytes(range(256))  # the labels not yet found off the diagonal
    for i in range(n):
        row, start = row_of(i), i * n
        try:
            table[start : start + n] = row
        except ValueError:  # a label beyond one byte: count the labels to say why
            found = {x for h in range(n) for j, x in enumerate(row_of(h)) if j != h}
            why = "has more than 255" if len(found) > 255 else "needs byte"
            raise ValueError(f"{subject} {why} labels") from None
        unseen = unseen.translate(None, table[start : start + i])
        unseen = unseen.translate(None, table[start + i + 1 : start + n])
    if not unseen:
        raise ValueError(f"{subject} has more than 255 labels")
    labels = bytes(range(256)).translate(None, unseen)
    rank = bytes(labels.find(b) + 1 for b in range(256))
    for i in range(n):  # (i, j) against (j, i) for j > i, then row i to classes
        start = i * n
        row, column = table[start + i + 1 : start + n], table[start + n + i :: n]
        if row != column:
            j = next(j for j, (a, b) in enumerate(zip(row, column), i + 1) if a != b)
            raise error(f"{subject} is asymmetric at ({i}, {j})")
        table[start : start + n] = table[start : start + n].translate(rank)
        table[start + i] = 0
    return table, tuple(labels)


def _class_rows(n: int, table: bytes | bytearray, classes) -> list[int]:
    """Row x is the bitset of the pairs (x, y) whose class is in ``classes``:
    the reversed row, translated to binary digits, puts (x, y) at bit y."""
    digits = bytes(ord("1") if b in classes else ord("0") for b in range(256))
    return [int(table[x * n : (x + 1) * n][::-1].translate(digits), 2) for x in range(n)]


def _label_graph(n, row_of, label, names, subject="pair invariant", error=AssertionError):
    """The graph joining the pairs labelled ``label`` in the label table of
    ``row_of`` (see :func:`_label_table`)."""
    table, labels = _label_table(n, row_of, subject, error)
    classes = {1 + labels.index(label)} if label in labels else ()
    return Graph(_class_rows(n, table, classes), names, validate=False)


def _basic_failure(g: Graph) -> RegularityFailure | None:
    """Shared preconditions: nonempty, regular, connected, non-complete."""
    n = g.n
    if n == 0:
        return RegularityFailure("empty graph")
    k = g.degree(0)
    for u in range(1, n):
        du = g.degree(u)
        if du != k:
            return RegularityFailure(
                "not regular", witness=(0, u), expected=k, found=du
            )
    if k == n - 1:
        return RegularityFailure("complete graph")
    seen = reduce(or_, distance_masks(g, 0))
    if seen.bit_count() != n:
        unreachable = next(bits(~seen & ((1 << n) - 1)))
        return RegularityFailure("disconnected", witness=(0, unreachable))
    return None


def distance_masks(g: Graph, root: int) -> list[int]:
    """Bitsets of the distance classes from root: masks[d] = vertices at
    BFS distance exactly d.  Unreachable vertices are not represented."""
    seen = frontier = 1 << root
    masks = [frontier]
    while True:
        grow = 0
        for u in bits(frontier):
            grow |= g.rows[u]
        frontier = grow & ~seen
        if not frontier:
            return masks
        masks.append(frontier)
        seen |= frontier


def check_srg(g: Graph) -> SrgParams | RegularityFailure:
    """Verify strong regularity by counting common neighbours of every
    vertex pair.  Returns the parameters, or the first violating pair."""
    basic = _basic_failure(g)
    if basic is not None:
        return basic
    n, rows = g.n, g.rows
    k = g.degree(0)
    lam = mu = -1
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            common = (ru & rows[v]).bit_count()
            if (ru >> v) & 1:
                if lam < 0:
                    lam = common
                elif common != lam:
                    return RegularityFailure(
                        "adjacent pairs disagree on common neighbours",
                        witness=(u, v),
                        expected=lam,
                        found=common,
                    )
            else:
                if mu < 0:
                    mu = common
                elif common != mu:
                    return RegularityFailure(
                        "non-adjacent pairs disagree on common neighbours",
                        witness=(u, v),
                        expected=mu,
                        found=common,
                    )
    return SrgParams(n, k, lam, mu)


def check_drg(g: Graph) -> IntersectionArray | RegularityFailure:
    """Verify distance regularity and extract the intersection array, or
    return the first violating pair.

    Certificate (Brouwer, Cohen & Neumaier, Distance-Regular Graphs, 4.1):
    a connected k-regular graph with distance-j matrices A_j, whose vertex
    0 has eccentricity l, is distance-regular exactly when for j = 1..l-1

        A A_j = b_{j-1} A_{j-1} + a_j A_j + c_{j+1} A_{j+1},  b_0 = k.

    Entry (v, y) of A A_j counts the neighbours z of v with d(z, y) = j:
    c_{j+1}, a_j or b_{j-1} seen from root y as d(v, y) is j+1, j or j-1,
    and 0 otherwise.  So the identity says exactly that these counts are
    constant; the constants are read from row 0.  On the diagonal at j = 1
    the count is k only if every edge at v is mutual, so c_1 = 1 (row
    symmetry) is checked, not assumed.  b_{l-1} = k - a_{l-1} - c_{l-1}
    needs no level of its own.  The identity makes the valencies
    k_{j+1} = k_j b_j / c_{j+1} the same from every root; from vertex 0
    they sum to n by level l, so every eccentricity is l.

    Each identity row is compared whole.  The distance rows of all roots
    come from the recurrence D_{j+1}(x) = (union of D_j(z), z in N(x))
    minus D_{j-1}(x) and D_j(x), and a level is packed as one s-byte
    counter per vertex with 256^s > k, so no count carries into the next.

    The per-root scan (a BFS from every root, counting c_d and b_d at every
    vertex) runs when the identity fails, to name the first witness in
    root, distance, vertex order.  It also certifies on its own when its
    estimated cost from n, k and l is below the identity's (long cycles),
    or when one packed level would exceed 2^26 bytes.
    """
    basic = _basic_failure(g)
    if basic is not None:
        return basic
    n, k = g.n, g.degree(0)
    masks = distance_masks(g, 0)
    l = len(masks) - 1
    s = (k.bit_length() + 7) // 8
    # Estimated nanoseconds of each certificate, fitted with CPython 3.11 on
    # a 2-CPU host over cycles, cubes, Hamming, Grassmann and orbital
    # graphs: per level and vertex the identity adds k packed rows of n*s
    # bytes, per root and vertex the scan makes two popcounts.
    width = n * s  # bytes of one packed row
    identity_ns = n * ((l - 1) * (k * (110 + width // 2) + 7000 + 6 * width) + 65 * n)
    scan_ns = n * (n * (600 + n // 2) + 1500 * l)
    if n * width <= _PAIR_CAP and identity_ns < scan_ns:
        array = _three_term_array(g, masks, s)
        if array is not None:
            return array
    return _scan_drg(g)


def _three_term_array(
    g: Graph, masks: list[int], s: int
) -> IntersectionArray | None:
    """The intersection array if the three-term identity holds on every
    row, else None.  ``masks`` are the distance classes of vertex 0."""
    n, k = g.n, g.degree(0)
    l = len(masks) - 1
    nbrs = _neighbour_lists(g)
    digits = bytes.maketrans(b"01", b"\0\1")
    field = 8 * s
    buf = bytearray(n * s)

    def packed(row: int) -> int:
        # Counter y, bytes s*y .. s*y+s-1 little-endian, is bit y of row:
        # orbital_graph's reading of a row, reversed.
        buf[::s] = format(row, f"0{n}b").encode().translate(digits)[::-1]
        return int.from_bytes(buf, "little")

    def counter(total: int, mask: int) -> int:
        y = (mask & -mask).bit_length() - 1
        return (total >> (field * y)) & ((1 << field) - 1)

    levels = _distance_levels(nbrs)
    lower, middle = next(levels), next(levels)
    b, c = [], [1]
    for j in range(1, l):
        upper = next(levels)
        counts = list(map(packed, middle))
        row0 = sum(map(counts.__getitem__, nbrs[0]))
        b.append(counter(row0, masks[j - 1]))
        if b[0] != k:  # an edge of vertex 0 is one-way: c_1 is not 1
            return None
        a, c_next = counter(row0, masks[j]), counter(row0, masks[j + 1])
        for v, nv in enumerate(nbrs):
            if sum(map(counts.__getitem__, nv)) != (
                b[-1] * packed(lower[v]) + a * counts[v] + c_next * packed(upper[v])
            ):
                return None
        c.append(c_next)
        lower, middle = middle, upper
    b.append(k - a - c[-2])
    return IntersectionArray(tuple(b), tuple(c))


def _scan_drg(g: Graph) -> IntersectionArray | RegularityFailure:
    """Distance regularity by a BFS from every root, counting c_d and b_d
    at every vertex; the first violation in root, distance, vertex order."""
    n, rows = g.n, g.rows
    k = g.degree(0)
    diameter = None
    b: list[int] = []
    c: list[int] = []
    for root in range(n):
        masks = distance_masks(g, root)
        l = len(masks) - 1
        if diameter is None:
            diameter = l
            b = [-1] * (l + 1)
            c = [-1, 1] + [-1] * (l - 1)  # c_1 = 1 unless an edge is one-way
            b[0] = k
        elif l != diameter:
            return RegularityFailure(
                "eccentricity varies", witness=(0, root), expected=diameter, found=l
            )
        for d in range(1, l + 1):
            below = masks[d - 1]
            above = masks[d + 1] if d < l else 0
            for v in bits(masks[d]):
                rv = rows[v]
                cd = (rv & below).bit_count()
                bd = (rv & above).bit_count()
                if c[d] < 0:
                    c[d] = cd
                elif cd != c[d]:
                    return RegularityFailure(
                        f"c_{d} not constant" if d > 1 else "c_1 is not 1",
                        witness=(root, v),
                        expected=c[d],
                        found=cd,
                    )
                if d < l:
                    if b[d] < 0:
                        b[d] = bd
                    elif bd != b[d]:
                        return RegularityFailure(
                            f"b_{d} not constant",
                            witness=(root, v),
                            expected=b[d],
                            found=bd,
                        )
    return IntersectionArray(tuple(b[:diameter]), tuple(c[1:]))


def _neighbour_lists(g: Graph) -> list[list[int]]:
    """The neighbours of every vertex, ascending.  The lists share one int
    object per vertex, so an entry costs a pointer."""
    n = g.n
    ids = list(range(n))
    digits = bytes.maketrans(b"01", b"\0\1")
    return [
        list(compress(ids, format(row, f"0{n}b").encode().translate(digits)[::-1]))
        for row in g.rows
    ]


def _distance_levels(nbrs: list[list[int]]) -> Iterator[list[int]]:
    """Level j lists D_j(x), the bitset of the vertices at distance j from
    x, for every vertex x at once, from D_0(x) = {x} and
    D_{j+1}(x) = (union of D_j(z) over z in N(x)) minus D_{j-1}(x) and
    D_j(x), which is exact for symmetric adjacency.  Stops before the first
    level that is empty for every x; at most three levels are held."""
    below, level = [0] * len(nbrs), [1 << x for x in range(len(nbrs))]
    while any(level):
        yield level
        below, level = level, [
            reduce(or_, map(level.__getitem__, nx), 0) & ~(low | mid)
            for nx, low, mid in zip(nbrs, below, level)
        ]


def distance_graph(g: Graph, i: int) -> Graph:
    """The graph on the same vertices joining pairs at BFS distance
    exactly i (empty edge set when i exceeds the diameter)."""
    if i < 1:
        raise ValueError("distance must be >= 1")
    if g.n and reduce(or_, distance_masks(g, 0)).bit_count() != g.n:
        raise ValueError("distance_graph requires a connected graph")
    for j, level in enumerate(_distance_levels(_neighbour_lists(g))):
        if j == i:
            return Graph(level, g.labels, validate=False)
    return Graph([0] * g.n, g.labels, validate=False)


def complement(g: Graph) -> Graph:
    """Edge iff non-edge (no loops)."""
    full = (1 << g.n) - 1
    rows = [full & ~row & ~(1 << u) for u, row in enumerate(g.rows)]
    return Graph(rows, g.labels, validate=False)


# ---------------------------------------------------------------------------
# Serialization: graph6 (header-free) and plain edge lists
# ---------------------------------------------------------------------------


# the largest vertex count the graph6 writer encodes; edge lists obey it too
_MAX_VERTICES = 258047


# graph6 writes a 6-bit group as the byte 63 + value; base64 writes it as
# this alphabet's byte number value
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _graph6_size(n: int) -> str:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= _MAX_VERTICES:
        return "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    raise ValueError("graph too large for this graph6 writer")


def to_graph6(g: Graph) -> str:
    """Standard graph6 encoding (no ">>graph6<<" header).

    The body is the upper triangle column by column, bits 0..j-1 of row j
    lowest first for j = 1..n-1, in zero-padded 6-bit groups.  Those are
    base64's groups, so binascii writes them, in another alphabet.
    """
    n = g.n
    need = (n * (n - 1) // 2 + 5) // 6
    stream = "".join(format(g.rows[j], f"0{n}b")[: n - j - 1 : -1] for j in range(1, n))
    stream += "0" * (-len(stream) % 24)  # whole base64 quanta
    data = int(stream, 2).to_bytes(len(stream) // 8, "big") if stream else b""
    body = binascii.b2a_base64(data, newline=False)[:need]
    return _graph6_size(n) + body.translate(
        bytes.maketrans(_BASE64, bytes(range(63, 127)))
    ).decode()


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (tolerates the optional standard header).

    Only the form to_graph6 writes is accepted: the one-byte size up to 62
    vertices, the "~" size above, and zero padding bits.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    if s.startswith("~~"):
        raise ValueError("the 8-byte '~~' graph6 size form is unsupported")
    size = 4 if s[0] == "~" else 1
    if len(s) < size:
        raise ValueError("truncated graph6 size")
    n = 0
    for ch in s[1:4] if size == 4 else s[0]:
        if not "?" <= ch <= "~":
            raise ValueError("invalid graph6 size")
        n = (n << 6) | (ord(ch) - 63)
    if size == 4 and n <= 62:
        raise ValueError(f"graph6 size {n} written in the '~' form, kept for n > 62")
    body = s[size:]
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    graph6 = bytes(range(63, 127))
    groups = body.encode()
    if groups.translate(None, graph6):
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise ValueError(f"invalid graph6 character {bad!r}")
    if need and (groups[-1] - 63) & ((1 << (6 * need - pairs)) - 1):
        raise ValueError("nonzero graph6 padding bits")
    groups = groups.translate(bytes.maketrans(graph6, _BASE64))
    data = binascii.a2b_base64(groups + b"A" * (-need % 4))
    stream = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    # The lower triangle as an n x n digit matrix: row j holds bits 0..j-1
    # of adjacency row j, so column x holds its bits above x.
    matrix = "".join(
        stream[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(n, "0") for j in range(n)
    )
    rows = [
        int(matrix[x * n : (x + 1) * n][::-1], 2) | int(matrix[x::n][::-1], 2)
        for x in range(n)
    ]
    return Graph(rows, validate=False)


def to_edgelist(g: Graph) -> str:
    """One "u v" pair per line (0-indexed, u < v, sorted), with a leading
    "# vertices N" line so isolated vertices survive a round trip."""
    lines = [f"# vertices {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    """Parse the edge-list format emitted by :func:`to_edgelist`."""
    n = None
    pairs: list[tuple[int, int]] = []
    top = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0] == "vertices":
                if not tokens[1].isdecimal():
                    raise ValueError(
                        f"header {line!r} needs a non-negative integer count"
                    )
                n = int(tokens[1])
                if n > _MAX_VERTICES:
                    raise ValueError(
                        f"header {line!r} exceeds the limit of "
                        f"{_MAX_VERTICES} vertices"
                    )
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(
                f"edge line {line!r} needs exactly two integer ids"
            ) from None
        if u < 0 or v < 0:
            raise ValueError(f"edge ({u}, {v}) has a negative vertex id")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if max(u, v) >= _MAX_VERTICES:
            raise ValueError(
                f"edge ({u}, {v}) exceeds the limit of {_MAX_VERTICES} vertices"
            )
        pairs.append((u, v))
        top = max(top, u, v)
    if n is None:
        n = top + 1 if pairs else 0
    rows = [0] * n
    for u, v in pairs:
        if u >= n or v >= n:
            raise ValueError(f"edge ({u}, {v}) exceeds vertex count {n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(rows, validate=False)
