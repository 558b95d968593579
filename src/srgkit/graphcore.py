"""Immutable bitset graphs and brute-force regularity engines.

Graphs are their rows: the vertices are 0..n-1, and each holds one Python
integer as its adjacency bitset, so common-neighbour counting is a
word-parallel AND plus popcount.  Vertex i stands for the i-th entry (a
point, a subspace, a flag) of the list its builder enumerated.  On top of
that sit exhaustive verifiers: strong regularity (every vertex pair, or
every pair (0, y) of a graph certified as group orbitals), BFS distance
computation, distance-i graphs, complements, and full distance-regularity
checking with intersection-array extraction (by the three-term identity,
its counts added into bit planes by carry-save adders, or a BFS from
every root).
The graph6 codec runs through binascii.  Every graph built from byte rows
(a predicate's truth values, a pair partition's classes, incidence sums)
becomes bitset rows through one reader, which refuses more than 2^26
pairs before it reads a row.  Failures carry a witness (the first
offending vertex or pair) rather than a bare boolean.
"""

from __future__ import annotations

import binascii
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .base import IntersectionArray, ScaleGuardError, _record
from .base import _strict_int

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


# most ordered pairs, one byte each, that a pair table may hold: degree
# 8192.  It is the one vertex bound of the family builds and of the graph
# files that ``verify`` counts.
_PAIR_CAP = 1 << 26

# most neighbour-list entries check_drg's three-term identity may hold
_NEIGHBOUR_CAP = 1 << 21


def _check_pair_cap(n: int) -> None:
    if n * n > _PAIR_CAP:
        raise ScaleGuardError(f"the pair partition of {n} points", n * n, _PAIR_CAP)


def bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@_record
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


@_record
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
    """An immutable simple graph on the vertices 0..n-1: one adjacency
    bitset per vertex.

    certificate is ``"group-orbitals"`` when the graph is a union of pair
    orbits of a transitive group that :func:`orbitals.compute_orbitals` has
    certified, as :func:`orbitals.orbital_graph` records; every other
    constructor leaves it None.  Equality and hashing compare the rows
    alone, so they ignore it.
    """

    __slots__ = ("n", "rows", "certificate")

    def __init__(self, rows: Sequence[int], validate: bool = True):
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "certificate", None)
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
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

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for off in bits(row):
                yield (u, u + 1 + off)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def build_graph(vertices: Sequence, adjacent: Callable) -> Graph:
    """Build a graph from a vertex list and a symmetric, irreflexive
    adjacency predicate; vertex i of the graph is ``vertices[i]``.

    The predicate is evaluated on every ordered pair, one byte row per
    vertex, and Graph's validation refuses a loop and names the first
    asymmetric pair.  More than 2^26 pairs (8192 vertices) raise
    ScaleGuardError before the predicate is called.
    """
    byte_rows = (bytes(map(bool, map(adjacent, repeat(v), vertices))) for v in vertices)
    return Graph(_class_rows(len(vertices), byte_rows, {1}))


def _class_rows(n: int, rows: Iterable[bytes], classes) -> list[int]:
    """Bitset x has bit y set when byte y of row x is in ``classes``: the
    reversed row, translated to binary digits.  ``rows`` are the n byte
    rows of n points, read only after more than 2^26 pairs are refused."""
    _check_pair_cap(n)
    digits = bytes(ord("1") if b in classes else ord("0") for b in range(256))
    return [int(row[::-1].translate(digits), 2) for row in rows]


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
    """Verify strong regularity by counting common neighbours: the
    parameters, or the first pair (u, v), v > u, in scan order whose count
    disagrees with the first pair of its kind (adjacent or not).

    Every pair is counted, except on a graph whose certificate is
    ``"group-orbitals"``: there the pairs (0, y) alone are counted.  The
    certified group is transitive and preserves the graph, so some element
    takes each pair (u, v) to a pair (0, y) with the same adjacency and
    common-neighbour count.  The counts are therefore constant on all
    pairs exactly when they are constant on row 0: the count is exhaustive
    over orbit representatives, not sampled.  The full scan reads row 0
    first, so its first witness lies in row 0 too, and the result is the
    full count's in every field, witness included.
    """
    basic = _basic_failure(g)
    if basic is not None:
        return basic
    n, rows = g.n, g.rows
    k = g.degree(0)
    lam = mu = -1
    for u in range(1 if g.certificate == "group-orbitals" else n):
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

    Each identity row is compared whole, as bit planes: the k rows
    D_j(z), z in N(v), are added by carry-save adders, so plane i holds
    bit i of every count, and it must equal the union of the distance
    rows whose constant has bit i set.  The union of the planes gives
    D_{j+1}(v) by the recurrence D_{j+1}(x) = (union of D_j(z), z in N(x))
    minus D_{j-1}(x) and D_j(x), so the count builds the next level.

    The per-root scan (a BFS from every root, counting c_d and b_d at every
    vertex) runs when the identity fails, to name the first witness in
    root, distance, vertex order.  It also certifies on its own when
    :func:`_picks_identity` says so from n, k and l: when its estimated
    cost is lower (long cycles), or the neighbour lists would pass their
    cap.
    """
    basic = _basic_failure(g)
    if basic is not None:
        return basic
    masks = distance_masks(g, 0)
    if _picks_identity(g.n, g.degree(0), len(masks) - 1):
        array = _three_term_array(g, masks)
        if array is not None:
            return array
    return _scan_drg(g)


def _picks_identity(n: int, k: int, l: int) -> bool:
    """Whether check_drg tries the three-term identity before the scan on
    a k-regular graph of n vertices whose vertex 0 has eccentricity l.

    The identity's working set is three levels of n bitsets (3n^2/8
    bytes), one vertex's bit planes and the neighbour lists, n k entries.
    These stay below 2^21 entries (16 MiB of pointers), so at the
    8192-vertex cap k is at most 255 and the whole set stays near 40 MiB.
    Otherwise it runs when its estimated cost is below the scan's."""
    # Estimated nanoseconds, fitted with CPython 3.11 on a 2-CPU host over
    # cycles, cubes, Hamming, Johnson, Grassmann and complete multipartite
    # graphs: per level and vertex the identity adds k rows of n bits into
    # bit planes, and per vertex it lists the neighbours; per root and
    # vertex the scan makes two popcounts.
    identity_ns = n * ((l - 1) * (k * (270 + n // 260) + 2300) + 19 * n)
    scan_ns = n * (n * (540 + n // 5) + 960 * l)
    return n * k < _NEIGHBOUR_CAP and identity_ns < scan_ns


def _three_term_array(g: Graph, masks: list[int]) -> IntersectionArray | None:
    """The intersection array if the three-term identity holds on every
    row, else None.  ``masks`` are the distance classes of vertex 0.

    Row v of A A_j is compared as the bit planes of :func:`_bit_planes`,
    and D_{j+1}(v) is read off them by the recurrence of
    :func:`_distance_levels` (see :func:`check_drg`).  The working set is
    three levels of n bitsets, one vertex's planes and the neighbour
    lists."""
    n, k = g.n, g.degree(0)
    l = len(masks) - 1
    nbrs = _neighbour_lists(g)
    lower = [1 << x for x in range(n)]
    middle = [row & ~bit for row, bit in zip(g.rows, lower)]

    def count(planes: list[int], mask: int) -> int:
        """Entry y of a row held as bit planes, y the least vertex of mask."""
        y = (mask & -mask).bit_length() - 1
        return sum(((plane >> y) & 1) << i for i, plane in enumerate(planes))

    b, c = [], [1]
    for j in range(1, l):
        row0 = _bit_planes(list(map(middle.__getitem__, nbrs[0])))
        b.append(count(row0, masks[j - 1]))
        if b[0] != k:  # an edge of vertex 0 is one-way: c_1 is not 1
            return None
        a, c_next = count(row0, masks[j]), count(row0, masks[j + 1])
        # plane i is the union of the levels whose constant has bit i set:
        # bit 0 of its selector for D_{j-1}, 1 for D_j and 2 for D_{j+1}
        select = [
            (b[-1] >> i & 1) | (a >> i & 1) << 1 | (c_next >> i & 1) << 2
            for i in range(len(row0))
        ]
        upper = []
        for lo, mid, nv in zip(lower, middle, nbrs):
            planes = _bit_planes(list(map(middle.__getitem__, nv)))
            up = reduce(or_, planes) & ~(lo | mid)
            unions = (0, lo, mid, lo | mid, up, lo | up, mid | up, lo | mid | up)
            if planes != list(map(unions.__getitem__, select)):
                return None
            upper.append(up)
        c.append(c_next)
        lower, middle = middle, upper
    b.append(k - a - c[-2])
    return IntersectionArray(tuple(b), tuple(c))


def _bit_planes(rows: list[int]) -> list[int]:
    """The positionwise count of ``rows`` as bit planes, one per bit of
    len(rows): bit y of plane i is bit i of the number of rows with bit y
    set.  Carry-save adders (Harley-Seal) add eight rows at a time into
    the planes ones, twos and fours, and each group's eights ripple up
    into the planes above; the last rows ripple in one at a time.  No
    count exceeds len(rows), so no carry leaves the top plane."""
    planes = [0] * len(rows).bit_length()
    top = len(rows) - len(rows) % 8
    if top:
        ones = twos = fours = 0
        for r0, r1, r2, r3, r4, r5, r6, r7 in zip(*[iter(rows)] * 8):
            # full adders: x + y + z = sum + 2 carry at every bit; the sum
            # stays in its plane and the carry goes up one
            t = ones ^ r0
            ones, twos_a = t ^ r1, (ones & r0) | (t & r1)
            t = ones ^ r2
            ones, twos_b = t ^ r3, (ones & r2) | (t & r3)
            t = twos ^ twos_a
            twos, fours_a = t ^ twos_b, (twos & twos_a) | (t & twos_b)
            t = ones ^ r4
            ones, twos_a = t ^ r5, (ones & r4) | (t & r5)
            t = ones ^ r6
            ones, twos_b = t ^ r7, (ones & r6) | (t & r7)
            t = twos ^ twos_a
            twos, fours_b = t ^ twos_b, (twos & twos_a) | (t & twos_b)
            t = fours ^ fours_a
            fours, carry = t ^ fours_b, (fours & fours_a) | (t & fours_b)
            i = 3
            while carry:
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                i += 1
        planes[:3] = ones, twos, fours
    for carry in rows[top:]:
        i = 0
        while carry:
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1
    return planes


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
            return Graph(level, validate=False)
    return Graph([0] * g.n, validate=False)


def complement(g: Graph) -> Graph:
    """Edge iff non-edge (no loops)."""
    full = (1 << g.n) - 1
    rows = [full & ~row & ~(1 << u) for u, row in enumerate(g.rows)]
    return Graph(rows, validate=False)


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
    vertices, the "~" size above, and zero padding bits.  A size past the
    pair cap (8192 vertices) raises ScaleGuardError before the body is read.
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
    _check_pair_cap(n)  # the decoding below holds n^2 digits
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
                try:
                    n = _strict_int(tokens[1])
                except ValueError:
                    n = -1
                if n < 0:
                    raise ValueError(
                        f"header {line!r} needs a non-negative integer count"
                    )
                if n > _MAX_VERTICES:
                    raise ValueError(
                        f"header {line!r} exceeds the limit of "
                        f"{_MAX_VERTICES} vertices"
                    )
            continue
        try:
            u, v = map(_strict_int, line.split())
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
