"""Small permutation actions: pair-orbit partitions, orbital graphs, and
direct intersection-number counting.

Permutations are plain image tuples and groups are never represented beyond
their generators.  The pair-orbit partition is built a block of rows at a
time along a breadth-first tree of the points, each block's columns
permuted at once by a strided byte transpose, and certified the same way
by checking that every generator preserves every row off that tree (the
rows on it agree by construction); the family builders hand it two
generators of a transitive subgroup when an invariant of the whole group
names that subgroup's pair orbits.  An orbital graph
carries that certificate, so ``check_srg`` counts it on the base row alone,
and an intersection number is counted at one representative pair.
"""

from __future__ import annotations

import functools
import itertools
import operator
from pathlib import Path

from .base import _record
from .graphcore import Graph, _check_pair_cap, _class_rows, _strict_int

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


def _search(perms, root: int, via: dict) -> list[int]:
    """The points newly reached by a breadth-first search from ``root``
    under ``perms``, in order; via[y] = (parent, perm index), a Schreier
    vector, is recorded for each (None at the root)."""
    order, via[root] = [root], None
    for p in order:
        for i, g in enumerate(perms):
            if g[p] not in via:
                via[g[p]] = p, i
                order.append(g[p])
    return order


@_record
class PermGroupAction:
    """A permutation group given by generators acting on {0..degree-1}."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree or sorted(g) != list(range(self.degree)):
                raise ValueError("generator is not a bijection on the points")

    def orbit(self, point: int) -> set[int]:
        return set(_search(self.generators, point, {}))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree


@_record
class OrbitalPartition:
    """Orbits of a transitive action on ordered pairs, or pair classes
    built by hand.

    class_of is ``bytes``, one byte per pair, row-major:
    class_of[x * degree + y]; so there are at most 255 classes.  Class 0 is
    the diagonal.  The rest is read off the base row (0, y) and the first
    column (y, 0), so every class needs a pair in the base row: reps[c] is
    the first, suborbit_lengths[c] their number, and paired[c] the class of
    the transposed pairs.  Bytes that are no such table raise ValueError
    naming the fault (TypeError if they are not ``bytes``).

    certificate is ``"group-orbitals"`` when :func:`compute_orbitals` has
    certified the classes as the pair orbits of a transitive group, as for
    every partition the package builds.  It is None only for a partition
    built by hand from class bytes, which no group has been checked to
    preserve.  It is not compared: equal partitions are equal classes.
    """

    _derived = ("rank", "paired", "reps", "suborbit_lengths")
    _uncompared = ("certificate",)

    degree: int
    rank: int
    class_of: bytes
    paired: tuple[int, ...]
    reps: tuple[tuple[int, int], ...]
    suborbit_lengths: tuple[int, ...]
    certificate: str | None = None

    def __post_init__(self):
        n, class_of = self.degree, self.class_of
        if not isinstance(class_of, bytes):
            raise TypeError(f"class_of is {type(class_of).__name__}, not bytes")
        if n < 1:
            raise ValueError(f"degree {n} is below 1")
        if len(class_of) != n * n:
            raise ValueError(
                f"{len(class_of)} class bytes for the {n * n} pairs of {n} points"
            )
        base_row = class_of[:n]
        rank = max(base_row) + 1
        lengths = tuple(map(base_row.count, range(rank)))
        rows = (class_of[x : x + n] for x in range(0, n * n, n))  # no n² temporary
        if 0 in lengths or any(row.translate(None, bytes(range(rank))) for row in rows):
            raise ValueError("a pair class has no representative in the base row")
        if class_of[:: n + 1] != bytes(n) or class_of.count(0) != n:
            raise ValueError("class 0 is not the diagonal")
        reps = tuple((0, base_row.index(c)) for c in range(rank))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "paired", tuple(class_of[y * n] for _, y in reps))
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "suborbit_lengths", lengths)

    def pair_class(self, x: int, y: int) -> int:
        return self.class_of[x * self.degree + y]

    def is_self_paired(self, c: int) -> bool:
        return self.paired[c] == c


_UNCLASSIFIED = 255  # the byte of every base-row point past the first 255 classes
_SEEDS = 8  # Schreier generators taken before the first certificate
_FEW = 8  # a fill group of fewer rows is gathered a row at a time
_MULCLOSE_CAP = 100_000  # the most elements mulclose enumerates


def _gatherer(perm):
    """The C-level gather row -> (row[perm[0]], row[perm[1]], ...), a tuple
    even at degree 1, where ``itemgetter`` of one index returns a scalar."""
    get = operator.itemgetter(*perm)
    return get if len(perm) > 1 else lambda row: (get(row),)


def _band(n: int) -> int:
    """The most rows one block moves: min(256, n // 8), at least 1, so
    that a block and its transpose stay a small part of the n² table."""
    return max(1, min(256, n // 8))


def _block(table, n: int, points) -> bytes:
    """Rows ``points`` of the n-point pair table, joined in that order."""
    return b"".join([table[x * n : x * n + n] for x in points])


def _permuted(block: bytes, n: int, perm) -> bytes:
    """The k n-byte rows of ``block`` with their columns permuted, row r
    becoming (row_r[perm[0]], row_r[perm[1]], ...), returned column-major:
    row r is ``result[r::k]``.  The strided slice ``block[j::n]`` is column
    j of every row, so joining the n of them in ``perm``'s order is the
    whole permutation: O(n + k) Python steps and O(k n) byte copies, where
    k row gathers box k n elements.  The columns are joined 64 at a time:
    all n small slices alive at once would leave about n (k + 33) bytes of
    small-object pools resident after they are freed, and raise the
    process's peak memory by that much."""
    chunks = (perm[a : a + 64] for a in range(0, n, 64))
    return b"".join([b"".join([block[j::n] for j in chunk]) for chunk in chunks])


def _invariant_under(table, n, generators, tree=None) -> tuple[int, int] | None:
    """The first (x, i), x ascending, at which g = generators[i] moves the
    n-point pair table (row g x permuted through g is not row x), or None.

    For each generator the rows x are taken in ascending bands of at most
    :func:`_band` rows; rows g x are joined, permuted through g at once by
    :func:`_permuted`, and compared with rows x byte for byte.  ``tree``,
    when given, is the Schreier vector the table was filled along:
    tree[y] = (x, i) means row y is row x permuted through g^-1, so that
    edge cannot fail and is skipped.  The n - 1 tree edges leave
    (|gens| - 1) n + 1 rows to compare, and the verdict is the full
    check's."""
    band, first = _band(n), None
    for i, g in enumerate(generators):
        rows = [x for x in range(n) if tree is None or tree[g[x]] != (x, i)]
        for start in range(0, len(rows), band):
            xs = rows[start : start + band]
            if first is not None and xs[0] >= first[0]:
                break  # (x, i) follows the failure found on an earlier generator
            moved, k = _permuted(_block(table, n, (g[x] for x in xs)), n, g), len(xs)
            moves = (
                x for r, x in enumerate(xs) if moved[r::k] != table[x * n : x * n + n]
            )
            if (x := next(moves, None)) is not None:
                if first is None or x < first[0]:
                    first = x, i
                break
    return first


def _pair_bytes(n: int, fill: int = 0) -> bytearray:
    """One ``fill`` byte per ordered pair of n points; the cap is checked first."""
    _check_pair_cap(n)
    return bytearray([fill]) * (n * n)


def _fill_blocks(order, via, band: int) -> list[tuple[int, list, list]]:
    """(i, rows, parents) for the rows below the root of the BFS tree
    ``via`` (in its search ``order``): the rows at one depth whose edge is
    generator i, at most ``band`` at a time, with their parents' rows;
    shallowest first, so every parent is filled before its block."""
    depth, groups = {order[0]: 0}, {}
    for x in order[1:]:
        p, i = via[x]
        depth[x] = depth[p] + 1
        groups.setdefault((depth[x], i), []).append(x)
    return [
        (i, xs[s : s + band], [via[x][0] for x in xs[s : s + band]])
        for (_, i), xs in groups.items()
        for s in range(0, len(xs), band)
    ]


def compute_orbitals(action: PermGroupAction, labels=None) -> OrbitalPartition:
    """Pair-orbit partition of a transitive action, filled a block of rows
    at a time.

    A BFS tree of the points (a Schreier vector) gives each x the word t_x
    along its path, with t_x(0) = x.  The base row (0, y) numbers the orbits
    of a few Schreier generators t_{gx}^-1 g t_x, which fix 0, by least
    point y, as the pair orbits are numbered; row g x is row x permuted
    through g^-1.  The rows at one depth of the tree whose edge is one
    generator are filled together, a band of them at a time, by one
    strided byte transpose (:func:`_permuted`); fewer than eight, as on the
    deep, thin tree of a cyclic action, are gathered a row at a time.
    Certificate: every generator g maps every row x onto row g x.  A tree
    edge (x, g) holds by construction, since row g x was filled from row x
    through that g (its Schreier generator is trivial: Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1),
    so only the other (|gens| - 1) n + 1 rows are compared, in bands.
    Sound, because (1) the classes are then unions of pair orbits;
    (2) t_x^-1 takes any pair (x, y) to a base-row pair of its class, and
    the class meets the base row in one stabilizer orbit, so it is one pair
    orbit; (3) a table finer than the orbits fails at some (x, g), whose
    Schreier generator merges base-row classes and is added, and all n|gens|
    of them generate the stabilizer of 0 (Schreier's lemma), so this ends.
    Raises ValueError if not transitive, ScaleGuardError past 2^26 pairs,
    and ValueError past 255 classes, only once the certificate holds.  The
    result carries the certificate ``"group-orbitals"``.

    ``labels``, when given, are the values of a pair invariant of the group
    on the base-row pairs (0, 1), ..., (0, n - 1).  They must name the
    certified orbits one to one (else ValueError: too few generators, or a
    value the group moves); class c >= 1 becomes the orbit of the c-th
    smallest label, which the invariant then takes on every pair of it.
    """
    n, gens, via = action.degree, action.generators, {}
    order = _search(gens, 0, via)
    if len(order) != n:
        raise ValueError("action is not transitive")
    table = _pair_bytes(n)
    back = [sorted(range(n), key=g.__getitem__) for g in gens]  # g^-1
    gather = [_gatherer(g) for g in back]
    blocks = _fill_blocks(order, via, _band(n))

    def word(x):  # t_x with t_x(0) = x: the generators on the tree path
        t = range(n)
        while via[x] is not None:
            x, i = via[x]
            t = _gatherer(gens[i])(t)
        return t

    def schreier(x, i):  # t_{g x}^-1 g t_x for g = gens[i]
        moved = sorted(range(n), key=word(gens[i][x]).__getitem__)
        return _gatherer(_gatherer(word(x))(gens[i]))(moved)

    edges = ((x, i) for x in reversed(order) for i in range(len(gens)))  # deepest first
    seeds = ((x, i) for x, i in edges if via[gens[i][x]] != (x, i))  # off the tree
    stabilizer = [schreier(*e) for e in itertools.islice(seeds, _SEEDS)]
    while True:
        reached = {}
        roots = (y for y in range(n) if y not in reached)
        for c, y in enumerate(roots):  # the stabilizer's orbits, by least point
            for z in _search(stabilizer, y, reached):
                table[z] = min(c, _UNCLASSIFIED)  # row 0, the base row
        for i, xs, parents in blocks:
            if len(xs) < _FEW:  # a row gather beats a transpose of so few
                for x, p in zip(xs, parents):
                    table[x * n : x * n + n] = gather[i](table[p * n : p * n + n])
                continue
            moved, k = _permuted(_block(table, n, parents), n, back[i]), len(xs)
            for r, x in enumerate(xs):
                table[x * n : x * n + n] = moved[r::k]
        if (failure := _invariant_under(table, n, gens, via)) is None:
            break
        stabilizer.append(schreier(*failure))
    del blocks, back, gather  # the n² copy below is the peak
    if _UNCLASSIFIED in table[:n]:
        raise ValueError(f"action has more than {_UNCLASSIFIED} pair orbits")
    if labels is not None:
        if len(labels := tuple(labels)) != n - 1:
            raise ValueError(f"{len(labels)} labels for {n - 1} base-row pairs")
        named = set(zip(table[1:n], labels))  # (orbit, label) pairs
        label_of, ascending = dict(named), sorted(set(labels))
        if not len(label_of) == len(ascending) == len(named):
            raise ValueError(
                f"labels do not name the pair orbits one to one: {sorted(named)}"
            )
        rename = bytearray(256)
        for orbit, label in named:
            rename[orbit] = 1 + ascending.index(label)
        for x in range(0, n * n, n):  # in place, a row at a time
            table[x : x + n] = table[x : x + n].translate(rename)
    class_of = bytes(table)
    del table  # one n² copy at a time
    return OrbitalPartition(n, class_of, certificate="group-orbitals")


def _named_orbitals(product, generator, count: int, labels) -> OrbitalPartition | None:
    """:func:`compute_orbitals` of G = <g_0 .. g_{count-1}>, named by
    ``labels``, a pair invariant of G; None if G is not transitive.  g_i is
    ``generator(i)``, which may make the i-th permutation when first asked,
    so that only the partners tried are made, and ``product`` is a product
    P of the g_i.

    It certifies on <P, partner> for the first partner, in the order g_i,
    then g_i g_j (i < j), that makes the pair transitive, when the labels
    name that pair's orbits one to one; on every g_i otherwise (no partner
    is transitive, or the pair's orbits are finer than the labels or more
    than 255), which raises what :func:`compute_orbitals` on G raises.
    After the single partners G itself is searched once, and when it is
    not transitive no product partner is tried.  A certificate round
    compares n + 1 rows on the pair, against (count - 1) n + 1 on every
    generator.

    Sound, because a transitive pair generates a transitive H <= G: if the
    labels, which G preserves, name the pair orbits of H one to one, then
    H-orbits <= G-orbits <= label classes = H-orbits, so the certified
    classes are G's."""
    n, labels = len(product), tuple(labels)

    def transitive(partners):  # the first transitive <P, partner>, or None
        pairs = (PermGroupAction(n, (product, g)) for g in partners)
        return next(filter(PermGroupAction.is_transitive, pairs), None)

    pair = transitive(map(generator, range(count)))
    if pair is None:
        group = PermGroupAction(n, tuple(map(generator, range(count))))
        if not group.is_transitive():
            return None
        products = itertools.combinations(group.generators, 2)
        pair = transitive(_gatherer(a)(b) for a, b in products)
    if pair is not None:
        try:
            return compute_orbitals(pair, labels)
        except ValueError:
            pass
    every = tuple(map(generator, range(count)))
    return compute_orbitals(PermGroupAction(n, every), labels)


def _two_generator_orbitals(action: PermGroupAction, labels) -> OrbitalPartition:
    """:func:`_named_orbitals` of ``action``'s generators, with P their
    product in index order (the first applied first); ValueError if the
    action is not transitive."""
    gens = action.generators
    product = functools.reduce(lambda a, b: _gatherer(a)(b), gens)  # a, then b
    partition = _named_orbitals(product, gens.__getitem__, len(gens), labels)
    if partition is None:
        raise ValueError("action is not transitive")
    return partition


def orbital_graph(partition: OrbitalPartition, cls: int) -> Graph:
    """Undirected graph whose edges are class ``cls`` united with its pair.
    It carries the partition's ``"group-orbitals"`` certificate, if any: the
    certified group preserves every class, so it preserves the graph."""
    if not 0 <= cls < partition.rank:
        raise ValueError(f"no class {cls}")
    if cls == 0:
        raise ValueError("the diagonal class has no graph")
    n, class_of = partition.degree, partition.class_of
    rows = (class_of[x : x + n] for x in range(0, n * n, n))
    graph = Graph(_class_rows(n, rows, (cls, partition.paired[cls])), validate=False)
    if partition.certificate == "group-orbitals":
        object.__setattr__(graph, "certificate", partition.certificate)
    return graph


def intersection_number_direct(
    partition: OrbitalPartition, h: int, i: int, j: int
) -> int:
    """p_ij^h: for a pair (x, y) of class h, the number of z with (x, z)
    in class i and (z, y) in class j.

    Counted at the stored representative alone, which is exhaustive on
    certified group orbitals: the group is transitive on the pairs of
    class h and preserves every class, so the count is the same at every
    pair of it, as the popcount of the AND of two byte masks: row x and
    column y, translated to one 0/1 byte per z.  A partition without the
    ``"group-orbitals"`` certificate raises ValueError.
    """
    for c in (h, i, j):
        if not 0 <= c < partition.rank:
            raise ValueError(f"no class {c}")
    if partition.certificate != "group-orbitals":
        raise ValueError(
            "partition is not certified group orbitals: "
            "one representative per class would not be exhaustive"
        )
    n, class_of = partition.degree, partition.class_of
    x, y = partition.reps[h]
    row = int.from_bytes(class_of[x * n : (x + 1) * n].translate(_is(i)), "little")
    column = int.from_bytes(class_of[y::n].translate(_is(j)), "little")
    return (row & column).bit_count()


# the translate table taking byte c to 1 and every other byte to 0, built once
_is = functools.cache(lambda c: bytes(c) + b"\1" + bytes(255 - c))


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
        values = []
        for k, token in enumerate(lines[number - 1].split(), 1):
            try:
                values.append(_strict_int(token))
            except ValueError:
                raise ValueError(
                    f"line {number}, token {k}: {token!r} is not an integer"
                ) from None
        return tuple(values)

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


def mulclose(generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All products of the generators; ValueError beyond ``_MULCLOSE_CAP``
    elements."""
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
                if len(group) >= _MULCLOSE_CAP:
                    raise ValueError(f"group exceeds {_MULCLOSE_CAP} elements")
                group.add(product)
                frontier.append(product)
    return group


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
    from .gf import make_field

    field = make_field(2, 6)  # PG(1, 64): 0..63 by element index, 64 for infinity
    embedded = set(field.subfield(3)[1])  # the GF(8) subline
    frob3 = [field.pow_index(a, 8) for a in range(64)]
    add, mul, inv = field.add_table, field.mul_table, field.inv_table
    t, finite, infinity = min(a for a in embedded if a > 1), range(64), (64,)
    line_maps = [  # x + 1, x t, 1 / x (t of order 7) and the squaring x -> x^2
        tuple(add[x][1] for x in finite) + infinity,
        tuple(mul[x][t] for x in finite) + infinity,
        infinity + tuple(inv[x] for x in range(1, 64)) + (0,),
        tuple(mul[x][x] for x in finite) + infinity,
    ]
    outside = [x for x in range(64) if x not in embedded]
    points = sorted({(min(x, frob3[x]), max(x, frob3[x])) for x in outside})
    if len(points) != 28:
        raise AssertionError(f"{len(points)} Frobenius pairs, expected 28")
    point_index = {frozenset(p): i for i, p in enumerate(points)}

    def induced(perm):  # the action of a line permutation on the 28 pairs
        try:
            return tuple(point_index[frozenset((perm[a], perm[b]))] for a, b in points)
        except KeyError:
            raise AssertionError("map does not preserve the point set") from None

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
