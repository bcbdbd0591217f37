"""Simple undirected graphs: representation, named and random generators,
connectivity, and graph6 / edge-list codecs.

Vertices are dense 0-based integers so graphs index directly into matrices.
A `Graph` is its one read-only 0/1 adjacency matrix: the graph6 and
edge-list decoders and the G(n, p), regular and edge-deletion generators
write that matrix directly, and the edge set, edge count, degrees and
connectivity are derived from it. The two random generators accept or reject a draw before
its float matrix exists: a G(n, p) draw is one 0/1 byte per vertex pair,
placed in a boolean matrix that the connectivity test reads, and a pairing
is abandoned at its first loop or repeated pair. Connectivity is one
breadth-first search, `_reaches_all`, over Python-int bitsets read from one
`np.packbits` of the matrix. Every pass over the vertex pairs u < v (graph6
encoding and decoding, the G(n, p) matrix, the edge set) goes through one
read-only strict upper-triangle mask per order, `upper_mask(n)`, built once
and cached for the last 64 orders used. `spectra.spectrum_tables` builds
every alpha*D + (1-alpha)*A from the matrix; this module solves nothing, and
a `Graph` caches only exact facts: its integers, connectivity and common
neighbours. Random generators draw from `seeded_rng(seed)`, the standard
library's Mersenne Twister, through its `random()` and `getrandbits()` only,
whose output for an integer seed CPython keeps the same across versions and
platforms; so identical seeds give identical graphs.
"""

from __future__ import annotations

import operator
import random
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

GRAPH6_MAX_ORDER = 62
GRAPH6_HEADER = ">>graph6<<"  # optional record prefix of the graph6 format
# Largest order an edge list may declare. The solvers hold dense (k, n, n)
# stacks: at n = 1000 an 11-alpha sweep stack is 96 MB.
MAX_ORDER = 1000
# Draw budgets of the randomized generators before GenerationFailureError.
ER_MAX_DRAWS = 1000
REGULAR_MAX_PAIRINGS = 20000


class InvalidParametersError(ValueError):
    """Graph or generator parameters outside their valid range."""


class GenerationFailureError(RuntimeError):
    """A randomized generator exhausted its retry budget."""


class MalformedGraph6Error(ValueError):
    """Byte string is not a valid graph6 record."""


class GraphTooLargeError(ValueError):
    """Graph order exceeds what a codec accepts: 62 for the single-byte
    graph6 header, MAX_ORDER for an edge-list header."""


class MalformedEdgeListError(ValueError):
    """Text is not a valid edge-list description."""


class NoSuchEdgeError(LookupError):
    """Requested edge is not present in the graph."""


@lru_cache(maxsize=64)  # every graph6 order; n^2 bytes each, 1 MB at MAX_ORDER
def upper_mask(n: int) -> np.ndarray:
    """Read-only (n, n) boolean mask of the pairs u < v. Boolean indexing
    reads and writes its entries in row-major order, the order of
    `np.triu_indices(n, 1)`; its transpose picks the same pairs from a
    transposed matrix in graph6 order."""
    r = np.arange(n)
    mask = r[:, None] < r
    mask.setflags(write=False)
    return mask


class Graph:
    """Simple undirected graph on vertices 0..n-1, stored as one read-only
    float64 (n, n) 0/1 adjacency matrix with a zero diagonal; the one
    per-graph record of what the bound verdicts read.

    `n` is the matrix's order. `edges` (the frozenset of (u, v) with u < v),
    `m`, `degrees()`, `degree_sequence`, `zagreb`, `connected` and
    `common_neighbours` are derived from the matrix on first read and cached
    on the instance; each is exact, and none solves the matrix. Two graphs are equal, and hash
    alike, when they have the same order and the same edge set, that is the
    same matrix."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        try:
            n = operator.index(n)
        except TypeError:
            raise InvalidParametersError(f"graph order must be an integer, got {n!r}") from None
        if n < 1:
            raise InvalidParametersError(f"graph order must be >= 1, got {n}")
        us, vs = [], []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidParametersError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParametersError(
                    f"edge ({u}, {v}) outside vertex range 0..{n - 1}"
                )
            us.append(u)
            vs.append(v)
        a = np.zeros((n, n))
        a[us, vs] = a[vs, us] = 1.0
        a.setflags(write=False)
        self.__dict__["_adjacency"] = a

    @classmethod
    def _from_adjacency(cls, a: np.ndarray) -> Graph:
        """Graph owning `a`, a fresh symmetric float64 0/1 matrix with a zero
        diagonal that no one else writes; it is made read-only here."""
        g = cls.__new__(cls)
        a.setflags(write=False)
        g.__dict__["_adjacency"] = a
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash(self.adjacency.tobytes())  # 8 n^2 bytes, so n is in it

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only float64 (n, n) 0/1 adjacency matrix, zero diagonal."""
        return self._adjacency

    @cached_property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def edges(self) -> frozenset:
        u, v = np.nonzero(upper_mask(self.n) & (self.adjacency > 0.0))
        return frozenset(zip(u.tolist(), v.tolist()))

    @cached_property
    def m(self) -> int:
        """Half the degree sum."""
        return sum(self.degree_sequence) // 2

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees, indexed by vertex, read-only."""
        d = self.__dict__.get("_degrees")
        if d is None:
            d = self.adjacency.sum(axis=1).astype(np.int64)
            d.setflags(write=False)
            self.__dict__["_degrees"] = d
        return d

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in non-increasing order."""
        return tuple(sorted(self.degrees().tolist(), reverse=True))

    @cached_property
    def zagreb(self) -> int:
        """First Zagreb index: the sum of squared degrees."""
        return sum(k * k for k in self.degree_sequence)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self)

    @cached_property
    def common_neighbours(self) -> int | None:
        """The number of common neighbours that every two distinct vertices
        share, or None when it varies or there is no pair: the one value off
        the diagonal of A @ A, which is exact in float64 for a 0/1 matrix."""
        counts = (self.adjacency @ self.adjacency)[upper_mask(self.n)]
        return int(counts[0]) if counts.size and counts.min() == counts.max() else None

    @property
    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    @property
    def is_regular(self) -> bool:
        return self.degree_sequence[0] == self.degree_sequence[-1]

    @property
    def is_star(self) -> bool:
        return self.m == self.n - 1 and self.degree_sequence[0] == self.n - 1


def is_connected(g: Graph) -> bool:
    """True iff breadth-first search from vertex 0 reaches all n vertices."""
    return _reaches_all(g.adjacency > 0.0)


def _reaches_all(m: np.ndarray) -> bool:
    """True iff breadth-first search from vertex 0 reaches every vertex of
    the symmetric 0/1 matrix m. The reached set, each level and each row
    are Python-int bitsets; a row is read from one `np.packbits` of m when
    its vertex enters a level, and the search stops once every vertex is
    reached."""
    packed = np.packbits(m, axis=1, bitorder="little")
    data, width, everyone = packed.tobytes(), packed.shape[1], (1 << len(m)) - 1
    seen = front = 1
    while front and seen != everyone:
        reach = 0
        while front:
            low = front & -front
            u = (low.bit_length() - 1) * width
            reach |= int.from_bytes(data[u : u + width], "little")
            front ^= low
        front = reach & ~seen
        seen |= front
    return seen == everyone


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """New graph with the edge {u, v} removed; the input is unchanged."""
    if not (0 <= u < g.n and 0 <= v < g.n and g.adjacency[u, v]):
        raise NoSuchEdgeError(f"edge ({u}, {v}) not in graph")
    a = g.adjacency.copy()
    a[u, v] = a[v, u] = 0.0
    return Graph._from_adjacency(a)


# -- named generators ---------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParametersError(f"complete(n) needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    """Star with the given number of leaves; vertex 0 is the center."""
    if leaves < 1:
        raise InvalidParametersError(f"star(leaves) needs leaves >= 1, got {leaves}")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParametersError(f"cycle(n) needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidParametersError(f"path(n) needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set; edges join disjoint pairs."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = []
    for x, p in enumerate(pairs):
        for y in range(x + 1, len(pairs)):
            if not set(p) & set(pairs[y]):
                edges.append((x, y))
    return Graph(10, edges)


def seeded_rng(seed: int) -> random.Random:
    """`random.Random(seed)` for a non-negative integer seed (anything
    `operator.index` takes); InvalidParametersError for any other seed,
    which `random.Random` would hash or fold onto a valid one."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InvalidParametersError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InvalidParametersError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def randbelow(rng: random.Random, n: int) -> int:
    """A uniform integer in [0, n), n >= 1: `getrandbits` of n - 1's bit
    length, redrawn while it is n or more."""
    bits = (n - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def erdos_renyi(n: int, p: float, seed: int, connected: bool = False) -> Graph:
    """G(n, p) sample, each pair u < v in row-major order an edge when one
    `random()` lies below p; with `connected=True`, redraws until connected,
    deciding each draw on its boolean matrix before the float matrix is
    built, and records `connected` on the sample."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidParametersError(f"erdos_renyi needs n >= 1 and p in [0,1], got ({n}, {p})")
    draw = seeded_rng(seed).random
    upper, pairs = upper_mask(n), range(n * (n - 1) // 2)
    for _ in range(ER_MAX_DRAWS):
        a = np.zeros((n, n), dtype=bool)
        a[upper] = np.frombuffer(bytes([draw() < p for _ in pairs]), dtype=bool)
        a |= a.T
        if connected and not _reaches_all(a):
            continue
        g = Graph._from_adjacency(a.astype(float))
        if connected:
            g.__dict__["connected"] = True
        return g
    raise GenerationFailureError(
        f"no connected G({n}, {p}) sample in {ER_MAX_DRAWS} draws"
    )


def random_regular(n: int, k: int, seed: int) -> Graph:
    """k-regular graph by the pairing model, rejecting non-simple pairings.

    A pairing pairs the last free stub with a uniformly drawn other free
    stub (`randbelow`) until none is free, so every perfect matching of the
    n*k stubs is equally likely, and each simple k-regular graph on the
    labelled vertices arises from (k!)^n of them: an accepted pairing is a
    uniform such graph. A pairing is abandoned at its first
    loop or repeated pair, where the whole pairing would be rejected. For k
    above (n-1)/2 the (n-1-k)-regular complement is paired instead and the
    result complemented; the conditioned distribution is the same. A
    pairing is simple with probability about exp(-(k*k - 1)/4), so the
    REGULAR_MAX_PAIRINGS budget holds for k <= 5 but runs out from k = 6,
    as a GenerationFailureError after 0.1-0.2 s. Over seeds 0-99 that
    happened at n = 20 for 41 % of the calls at k = 6, 97 % at k = 7 and
    all at k = 8, and at n = 62 for 5 %, 96 % and all.
    """
    if not 0 <= k < n:
        raise InvalidParametersError(f"random_regular needs 0 <= k < n, got ({n}, {k})")
    if (n * k) % 2 != 0:
        raise InvalidParametersError(f"random_regular needs n*k even, got ({n}, {k})")
    if k > (n - 1) // 2:
        # n(n-1-k) inherits evenness from nk, so the recursion is valid.
        inner = random_regular(n, n - 1 - k, seed)
        return Graph._from_adjacency(1.0 - inner.adjacency - np.eye(n))
    rng = seeded_rng(seed)
    stubs = [v for v in range(n) for _ in range(k)]
    for _ in range(REGULAR_MAX_PAIRINGS):
        free, a = stubs.copy(), bytearray(n * n)
        while free:
            u = free.pop()
            v = free.pop(randbelow(rng, len(free)))
            uv = u * n + v
            if u == v or a[uv]:  # a loop or a repeated pair
                break
            a[uv] = a[v * n + u] = 1
        else:
            return Graph._from_adjacency(np.frombuffer(a, dtype=np.uint8).reshape(n, n)
                                         .astype(float))
    raise GenerationFailureError(
        f"no simple {k}-regular pairing on {n} vertices in {REGULAR_MAX_PAIRINGS} attempts"
    )


# -- graph6 codec --------------------------------------------------------
#
# One record: byte (n + 63), then ceil(n(n-1)/2 / 6) bytes each carrying six
# bits (value = byte - 63, most significant bit first) of the upper adjacency
# triangle in column order x(0,1), x(0,2), x(1,2), x(0,3), ...; pad bits zero.
# That is the row-major order of the lower triangle of the transpose, so the
# bits fill `a.T[upper_mask(n).T]`. A file may start each record
# with GRAPH6_HEADER, as networkx's writers do.


_GRAPH6_BYTES = bytes(range(63, 127))  # the bytes a record may hold
_MINUS_63 = bytes((byte - 63) % 256 for byte in range(256))  # a payload byte's six bits


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 record (order at most 62), after one optional
    leading GRAPH6_HEADER. The payload is checked as bytes: one `translate`
    finds a byte outside 63..126, whose offset is looked up only then, and
    the pad bits are the low bits of the last byte."""
    if isinstance(data, str):
        try:
            record = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedGraph6Error(f"non-ascii input: {exc}") from None
    else:
        record = bytes(data)
    record = record.strip().removeprefix(GRAPH6_HEADER.encode("ascii"))
    if not record:
        raise MalformedGraph6Error("empty record")
    head = record[0]
    if not 63 <= head <= 126:
        raise MalformedGraph6Error(f"size byte {head} at offset 0 outside 63..126")
    n = head - 63
    if n > GRAPH6_MAX_ORDER:
        raise MalformedGraph6Error("multi-byte size headers (n > 62) not supported")
    if n == 0:
        raise MalformedGraph6Error("graph6 order 0 not representable here")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = record[1:]
    if len(body) != nbytes:
        raise MalformedGraph6Error(
            f"expected {nbytes} payload bytes for n={n}, got {len(body)}"
        )
    if body.translate(None, _GRAPH6_BYTES):  # some byte outside 63..126
        bad = next(i for i, byte in enumerate(body) if not 63 <= byte <= 126)
        raise MalformedGraph6Error(
            f"payload byte {body[bad]} at offset {bad + 1} outside 63..126"
        )
    if nbits % 6 and (body[-1] - 63) & ((1 << (6 - nbits % 6)) - 1):
        raise MalformedGraph6Error("nonzero padding bits")
    vals = np.frombuffer(body.translate(_MINUS_63), dtype=np.uint8)
    bits = np.unpackbits(vals).reshape(-1, 8)[:, 2:].reshape(-1)
    a = np.zeros((n, n))
    a.T[upper_mask(n).T] = bits[:nbits]
    a += a.T
    return Graph._from_adjacency(a)


def serialize_graph6(g: Graph) -> bytes:
    """Encode a graph as one graph6 record; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_ORDER:
        raise GraphTooLargeError(f"graph6 single-byte header caps n at 62, got {g.n}")
    bits = g.adjacency.T[upper_mask(g.n).T]
    nbytes = (len(bits) + 5) // 6
    padded = np.zeros(nbytes * 6)
    padded[: len(bits)] = bits
    vals = padded.reshape(nbytes, 6) @ np.array([32.0, 16.0, 8.0, 4.0, 2.0, 1.0])
    return bytes([g.n + 63]) + (vals + 63).astype(np.uint8).tobytes()


# -- edge-list codec ------------------------------------------------------


def split_lines(data: bytes) -> list[bytes]:
    """`data`'s lines, ended at \\n, \\r\\n or \\r only (as text-mode `open`
    ends them) and stripped of ASCII whitespace: every input file's line rule."""
    return [line.strip() for line in
            data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")]


# What `bytes.split` and `int` take beyond -?[0-9]+ fields: vertical tab and
# form feed as separators, '+' as a sign and '_' as a digit separator.
_NON_FIELD = bytes.maketrans(b"\x0b\x0c+_", b"????")


def parse_edge_list(text: str) -> Graph:
    """Parse 'n m' followed by m 'u v' lines; '#' starts a comment line.

    Lines are `split_lines`'s; spaces and tabs separate fields, and a field
    is an integer when it matches -?[0-9]+: a non-ASCII character, a
    vertical tab or form feed inside a line, '+' and '_' read as '?'. Each
    edge is written into the matrix as it is read, so a repeated edge is
    found at its entry. Raises MalformedEdgeListError for malformed
    text and GraphTooLargeError for an order above MAX_ORDER.
    """
    a = None
    found = 0
    for lineno, line in enumerate(split_lines(text.encode("ascii", "replace")), start=1):
        if not line or line.startswith(b"#"):
            continue
        fields = line.translate(_NON_FIELD).split()
        if a is None:
            if len(fields) != 2:
                raise MalformedEdgeListError(f"line {lineno}: expected header 'n m'")
            try:
                n, expected = int(fields[0]), int(fields[1])
            except ValueError:
                raise MalformedEdgeListError(
                    f"line {lineno}: non-integer header fields"
                ) from None
            if n < 1 or expected < 0:
                raise MalformedEdgeListError(f"line {lineno}: bad counts n={n} m={expected}")
            if n > MAX_ORDER:
                raise GraphTooLargeError(
                    f"line {lineno}: order {n} exceeds the edge-list cap of {MAX_ORDER}"
                )
            a = bytearray(n * n)
            continue
        if found == expected:
            raise MalformedEdgeListError(
                f"line {lineno}: more than the declared {expected} edges"
            )
        if len(fields) != 2:
            raise MalformedEdgeListError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedEdgeListError(f"line {lineno}: non-integer endpoints") from None
        if u == v:
            raise MalformedEdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedEdgeListError(
                f"line {lineno}: vertex outside range 0..{n - 1}"
            )
        if a[u * n + v]:
            raise MalformedEdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
        a[u * n + v] = a[v * n + u] = 1
        found += 1
    if a is None:
        raise MalformedEdgeListError("no header line found")
    if found != expected:
        raise MalformedEdgeListError(f"declared {expected} edges but found {found}")
    return Graph._from_adjacency(np.frombuffer(a, dtype=np.uint8).reshape(n, n).astype(float))
