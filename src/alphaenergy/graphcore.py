"""Simple undirected graphs: representation, named and random generators,
connectivity, and graph6 / edge-list codecs.

Vertices are dense 0-based integers so graphs index directly into matrices.
Random generators draw from numpy's seeded PCG64 generator, which produces
identical streams for identical seeds on every platform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .densela import SymmetricMatrix

GRAPH6_MAX_ORDER = 62


class InvalidParametersError(ValueError):
    """Graph or generator parameters outside their valid range."""


class GenerationFailureError(RuntimeError):
    """A randomized generator exhausted its retry budget."""


class MalformedGraph6Error(ValueError):
    """Byte string is not a valid graph6 record."""


class GraphTooLargeError(ValueError):
    """Graph order exceeds what the single-byte graph6 header can carry."""


class MalformedEdgeListError(ValueError):
    """Text is not a valid edge-list description."""


class NoSuchEdgeError(LookupError):
    """Requested edge is not present in the graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a frozen edge set."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise InvalidParametersError(f"graph order must be >= 1, got {n}")
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidParametersError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParametersError(
                    f"edge ({u}, {v}) outside vertex range 0..{n - 1}"
                )
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees, indexed by vertex."""
        d = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in non-increasing order."""
        return tuple(sorted(self.degrees().tolist(), reverse=True))

    @property
    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges


def adjacency_matrix(g: Graph) -> SymmetricMatrix:
    """0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return SymmetricMatrix(a)


def is_connected(g: Graph) -> bool:
    """True iff breadth-first traversal from vertex 0 reaches all n vertices."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(g.n)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    nxt.append(w)
        frontier = nxt
    return count == g.n


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """New graph with the edge {u, v} removed; the input is unchanged."""
    key = (u, v) if u < v else (v, u)
    if key not in g.edges:
        raise NoSuchEdgeError(f"edge ({u}, {v}) not in graph")
    return Graph(g.n, g.edges - {key})


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


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidParametersError(
            f"complete_bipartite(a, b) needs a, b >= 1, got ({a}, {b})"
        )
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set; edges join disjoint pairs."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = []
    for x, p in enumerate(pairs):
        for y in range(x + 1, len(pairs)):
            if not set(p) & set(pairs[y]):
                edges.append((x, y))
    return Graph(10, edges)


def erdos_renyi(
    n: int,
    p: float,
    seed: int,
    connected: bool = False,
    max_retries: int = 1000,
) -> Graph:
    """G(n, p) sample; with `connected=True`, redraws until connected."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidParametersError(f"erdos_renyi needs n >= 1 and p in [0,1], got ({n}, {p})")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(max_retries):
        mask = rng.random(len(pairs)) < p
        g = Graph(n, [e for e, keep in zip(pairs, mask) if keep])
        if not connected or is_connected(g):
            return g
    raise GenerationFailureError(
        f"no connected G({n}, {p}) sample in {max_retries} draws"
    )


def random_regular(n: int, k: int, seed: int, max_retries: int = 20000) -> Graph:
    """k-regular graph by the pairing model, rejecting non-simple matchings.

    For k above (n-1)/2 the (n-1-k)-regular complement is paired instead and
    the result complemented; the conditioned distribution is the same and the
    rejection rate stays manageable.
    """
    if not 0 <= k < n:
        raise InvalidParametersError(f"random_regular needs 0 <= k < n, got ({n}, {k})")
    if (n * k) % 2 != 0:
        raise InvalidParametersError(f"random_regular needs n*k even, got ({n}, {k})")
    if k > (n - 1) // 2:
        # n(n-1-k) inherits evenness from nk, so the recursion is valid.
        inner = random_regular(n, n - 1 - k, seed, max_retries)
        return Graph(n, [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if not inner.has_edge(i, j)
        ])
    if k == 0:
        return Graph(n)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), k)
    for _ in range(max_retries):
        perm = rng.permutation(stubs)
        us, vs = perm[0::2], perm[1::2]
        if np.any(us == vs):
            continue
        edges = {(int(u), int(v)) if u < v else (int(v), int(u)) for u, v in zip(us, vs)}
        if len(edges) != len(us):
            continue
        return Graph(n, edges)
    raise GenerationFailureError(
        f"no simple {k}-regular pairing on {n} vertices in {max_retries} attempts"
    )


_FAMILIES = {
    "complete": complete,
    "star": star,
    "cycle": cycle,
    "path": path,
    "complete_bipartite": complete_bipartite,
    "petersen": petersen,
    "erdos_renyi": erdos_renyi,
    "random_regular": random_regular,
}

_DESCRIPTOR_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def generate(descriptor: str) -> Graph:
    """Build a named graph from a descriptor such as 'complete(4)',
    'erdos_renyi(10, 0.3, 42)' or 'petersen'."""
    m = _DESCRIPTOR_RE.match(descriptor)
    if not m or m.group(1) not in _FAMILIES:
        raise InvalidParametersError(f"unknown family descriptor {descriptor!r}")
    name, raw = m.group(1), m.group(2)
    args = []
    if raw:
        for tok in raw.split(","):
            tok = tok.strip()
            try:
                args.append(float(tok) if "." in tok or "e" in tok.lower() else int(tok))
            except ValueError:
                raise InvalidParametersError(
                    f"bad parameter {tok!r} in descriptor {descriptor!r}"
                ) from None
    try:
        return _FAMILIES[name](*args)
    except TypeError:
        raise InvalidParametersError(
            f"wrong parameter count in descriptor {descriptor!r}"
        ) from None


# -- graph6 codec --------------------------------------------------------
#
# One record: byte (n + 63), then ceil(n(n-1)/2 / 6) bytes each carrying six
# bits (value = byte - 63, most significant bit first) of the upper adjacency
# triangle in column order x(0,1), x(0,2), x(1,2), x(0,3), ...; pad bits zero.


def _triangle_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    cols = np.repeat(np.arange(1, n), np.arange(1, n))
    rows = np.concatenate([np.arange(j) for j in range(1, n)]) if n > 1 else np.array([], dtype=int)
    return rows, cols


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 record (order at most 62)."""
    if isinstance(data, str):
        try:
            record = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedGraph6Error(f"non-ascii input: {exc}") from None
    else:
        record = bytes(data)
    record = record.strip()
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
    vals = np.frombuffer(body, dtype=np.uint8).astype(np.int64) - 63
    if np.any(vals < 0) or np.any(vals > 63):
        bad = int(np.argmax((vals < 0) | (vals > 63)))
        raise MalformedGraph6Error(
            f"payload byte {body[bad]} at offset {bad + 1} outside 63..126"
        )
    shifts = np.array([5, 4, 3, 2, 1, 0])
    bits = ((vals[:, None] >> shifts[None, :]) & 1).reshape(-1)
    if np.any(bits[nbits:]):
        raise MalformedGraph6Error("nonzero padding bits")
    rows, cols = _triangle_pairs(n)
    mask = bits[:nbits].astype(bool)
    return Graph(n, list(zip(rows[mask].tolist(), cols[mask].tolist())))


def serialize_graph6(g: Graph) -> bytes:
    """Encode a graph as one graph6 record; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_ORDER:
        raise GraphTooLargeError(f"graph6 single-byte header caps n at 62, got {g.n}")
    rows, cols = _triangle_pairs(g.n)
    bits = np.zeros(len(rows), dtype=np.int64)
    for i, (u, v) in enumerate(zip(rows.tolist(), cols.tolist())):
        if g.has_edge(u, v):
            bits[i] = 1
    nbytes = (len(bits) + 5) // 6
    padded = np.zeros(nbytes * 6, dtype=np.int64)
    padded[: len(bits)] = bits
    weights = np.array([32, 16, 8, 4, 2, 1])
    vals = padded.reshape(nbytes, 6) @ weights
    return bytes([g.n + 63]) + bytes((vals + 63).astype(np.uint8).tolist())


# -- edge-list codec ------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse 'n m' followed by m 'u v' lines; '#' starts a comment line."""
    header = None
    edges = []
    expected = 0
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
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
            header = (n, expected)
            continue
        if len(edges) == expected:
            raise MalformedEdgeListError(
                f"line {lineno}: more than the declared {expected} edges"
            )
        if len(fields) != 2:
            raise MalformedEdgeListError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedEdgeListError(f"line {lineno}: non-integer endpoints") from None
        n = header[0]
        if u == v:
            raise MalformedEdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedEdgeListError(
                f"line {lineno}: vertex outside range 0..{n - 1}"
            )
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise MalformedEdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    if header is None:
        raise MalformedEdgeListError("no header line found")
    if len(edges) != expected:
        raise MalformedEdgeListError(
            f"declared {expected} edges but found {len(edges)}"
        )
    return Graph(header[0], edges)
