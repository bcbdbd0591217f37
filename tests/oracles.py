"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own code: matrices are
built from edge lists, spectra come from LAPACK (numpy.linalg.eigvalsh) or,
independently of LAPACK, from a cyclic Jacobi sweep; eigenvalue residuals
from a singular value decomposition; characteristic polynomials from the
Faddeev-LeVerrier recursion, determinants from cofactor expansion;
connectivity from a union-find over the edge set, or from the earlier
matrix-vector expansion; the random generators drawn one vertex pair or
one stub at a time from `random.Random`; graph6 records decoded
bit by bit as the format's description reads, and their error messages
from the decoder's earlier numpy reading of the payload; CSV reports from
`csv.writer` and JSON reports from `json.dumps`, reading a verdict table
one row at a time through `one_alpha.row_view`, and `spectrum`'s rows from
`json.dumps` of one dict per row; the bounds' closed forms from Python
floats, the `math` module and `np.log`, one row at a time; the stated
equality classes from the eigenvalues `alpha_eigs` gives.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np

from alphaenergy.bounds import BOUND_IDS
from alphaenergy.graphcore import MalformedGraph6Error
from one_alpha import row_view


def adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def graph6_decode(record: bytes) -> tuple[int, set[tuple[int, int]]]:
    """(n, edges) of a graph6 record with a one-byte size header, read bit by
    bit from McKay's description of the format: the first byte is n + 63;
    each later byte, less 63, holds six bits, most significant first; the
    bits are x(i, j) for i < j in the order (0,1), (0,2), (1,2), (0,3),
    (1,3), (2,3), ..., that is column j = 1, 2, ... and within it row
    i = 0..j-1; bits past the last pair are zero padding."""
    n = record[0] - 63
    bits = [(byte - 63) >> shift & 1 for byte in record[1:] for shift in range(5, -1, -1)]
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.add((i, j))
            k += 1
    assert len(bits) == (k + 5) // 6 * 6 and not any(bits[k:]), "bad length or padding"
    return n, edges


def parse_graph6_reference(data: bytes | str) -> np.ndarray:
    """The graph6 decoder as it read a record with numpy comparisons on the
    payload array, kept as the reference for `parse_graph6`'s error
    messages: the adjacency matrix of one record (order at most 62, after
    one optional leading header), or the MalformedGraph6Error it raised."""
    if isinstance(data, str):
        try:
            record = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedGraph6Error(f"non-ascii input: {exc}") from None
    else:
        record = bytes(data)
    record = record.strip().removeprefix(b">>graph6<<")
    if not record:
        raise MalformedGraph6Error("empty record")
    head = record[0]
    if not 63 <= head <= 126:
        raise MalformedGraph6Error(f"size byte {head} at offset 0 outside 63..126")
    n = head - 63
    if n > 62:
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
    vals = np.frombuffer(body, dtype=np.uint8)
    out = (vals < 63) | (vals > 126)
    if out.any():
        bad = int(np.argmax(out))
        raise MalformedGraph6Error(
            f"payload byte {body[bad]} at offset {bad + 1} outside 63..126"
        )
    bits = np.unpackbits(vals - np.uint8(63)).reshape(-1, 8)[:, 2:].reshape(-1)
    if bits[nbits:].any():
        raise MalformedGraph6Error("nonzero padding bits")
    a = np.zeros((n, n))
    a.T[(~np.tri(n, dtype=bool)).T] = bits[:nbits]
    return a + a.T


def connected_by_union_find(g) -> bool:
    """True iff merging the endpoints of every edge leaves one component."""
    parent = list(range(g.n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = g.n
    for u, v in g.edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def connected_by_matvec(a: np.ndarray) -> bool:
    """The earlier connectivity test on a 0/1 matrix: breadth-first expansion
    from vertex 0, each step adding every vertex with a row hitting the
    reached set."""
    seen = np.zeros(a.shape[0], dtype=bool)
    seen[0] = True
    count = 1
    while True:
        seen |= a @ seen > 0
        grown = int(np.count_nonzero(seen))
        if grown == count:
            return count == a.shape[0]
        count = grown


def uniform_below(rng: random.Random, n: int) -> int:
    """A uniform integer in [0, n): `getrandbits` of the fewest bits whose
    range covers n values, drawn again until it is below n."""
    bits = 0
    while 1 << bits < n:
        bits += 1
    while True:
        r = rng.getrandbits(bits)
        if r < n:
            return r


def erdos_renyi_reference(n: int, p: float, rng: random.Random, connected: bool,
                          max_draws: int) -> np.ndarray | None:
    """The G(n, p) generator drawn from `rng` one pair at a time: each pair
    u < v, u then v ascending, an edge when `rng.random()` is below p. The
    adjacency matrix of its first draw (its first connected one if
    `connected`) within `max_draws` draws, else None."""
    for _ in range(max_draws):
        a = np.zeros((n, n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    a[u, v] = a[v, u] = 1.0
        if not connected or connected_by_matvec(a):
            return a
    return None


def random_regular_reference(n: int, k: int, rng: random.Random,
                             max_pairings: int) -> np.ndarray | None:
    """The pairing model drawn from `rng` one stub at a time: the stubs of
    vertices 0..n-1, k each, in a list; the last is paired with the one at
    index `uniform_below(rng, len(rest))` of the rest, both leave the list,
    and a pairing stops at its first loop or repeated pair. The adjacency
    matrix of its first whole pairing within `max_pairings`, else None;
    above k = (n-1)/2 the complement's."""
    if k > (n - 1) // 2:
        inner = random_regular_reference(n, n - 1 - k, rng, max_pairings)
        return None if inner is None else 1.0 - inner - np.eye(n)
    if k == 0:
        return np.zeros((n, n))
    for _ in range(max_pairings):
        free = [v for v in range(n) for _ in range(k)]
        pairs = set()
        while free:
            u = free.pop()
            v = free.pop(uniform_below(rng, len(free)))
            if u == v or frozenset((u, v)) in pairs:
                break
            pairs.add(frozenset((u, v)))
        else:
            a = np.zeros((n, n))
            for u, v in pairs:
                a[u, v] = a[v, u] = 1.0
            return a
    return None


def alpha_matrix(g, alpha: float) -> np.ndarray:
    a = adjacency(g)
    return alpha * np.diag(a.sum(axis=1)) + (1.0 - alpha) * a


def alpha_eigs(g, alpha: float) -> np.ndarray:
    """Descending eigenvalues of alpha*D + (1-alpha)*A via LAPACK."""
    return np.sort(np.linalg.eigvalsh(alpha_matrix(g, alpha)))[::-1]


def energy(g, alpha: float) -> float:
    rho = alpha_eigs(g, alpha)
    shift = 2.0 * alpha * g.m / g.n
    return float(np.abs(rho - shift).sum())


def signless_energy(g) -> float:
    """Energy of D + A, computed without the package's alpha machinery."""
    a = adjacency(g)
    q = np.sort(np.linalg.eigvalsh(np.diag(a.sum(axis=1)) + a))
    return float(np.abs(q - 2.0 * g.m / g.n).sum())


def spectra_agree(got, expected, m, rtol: float) -> bool:
    """Do two sorted spectra of the same length agree entry by entry within
    rtol * (1 + ||m||_F)? The bound scales with the matrix, not the entry."""
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    scale = 1.0 + float(np.linalg.norm(np.asarray(m, dtype=np.float64)))
    return got.shape == expected.shape and float(np.max(np.abs(got - expected))) <= rtol * scale


def eigenvalue_residual(m, lam: float) -> float:
    """Smallest singular value of m - lam*I. For a symmetric m this is the
    distance from lam to the nearest eigenvalue, so it is zero up to rounding
    exactly when lam is one."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.linalg.svd(m - lam * np.eye(m.shape[0]), compute_uv=False)[-1])


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - M), highest power first (Faddeev-LeVerrier)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -np.trace(mk) / k
        coeffs[k] = c
        mk = mk + c * np.eye(n)
    return coeffs


def charpoly_eigs(m: np.ndarray) -> np.ndarray:
    """Descending real roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coefficients(m))
    return np.sort(roots.real)[::-1]


def det_cofactor(m) -> float:
    """Recursive cofactor-expansion determinant; fine for tiny matrices."""
    rows = [list(map(float, row)) for row in m]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1.0) ** j * rows[0][j] * det_cofactor(minor)
    return total


def jacobi_eigvals(m, rtol: float = 1e-14, max_sweeps: int = 100) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Uses no LAPACK routine, so it checks the package's solver independently.
    Rotations run in fixed row-major (p, q) order until the off-diagonal
    Frobenius norm falls below rtol * (1 + ||m||_F).
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    off = ~np.eye(n, dtype=bool)
    tol = rtol * (1.0 + math.sqrt(float(np.sum(a * a))))
    for _ in range(max_sweeps):
        if math.sqrt(float(np.sum(a[off] ** 2))) <= tol:
            return np.sort(np.diagonal(a))[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                # Python floats: a huge theta becomes inf (t = 0), never a warning.
                theta = float(a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rp, rq = a[p].copy(), a[q].copy()
                a[p], a[q] = c * rp - s * rq, s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    raise AssertionError(f"Jacobi oracle did not converge in {max_sweeps} sweeps")


def energy_via_partial_sums(rho: np.ndarray, shift: float) -> float:
    """2 * max over j of (sum of the j largest eigenvalues minus j * shift).

    Tie-robust identity for the energy sum |rho_i - shift| when the
    eigenvalues sum to n * shift.
    """
    partial = np.cumsum(rho) - shift * np.arange(1, len(rho) + 1)
    return 2.0 * float(np.max(partial))


def reports_to_csv_reference(v) -> str:
    """CSV report of the verdict table `v` written row by row with `csv.writer`.

    Each float is rounded to 12 significant digits, parsed back and formatted
    again, as the JSON writer's values are; booleans are true/false and None
    is empty. Rows are written with a CR LF terminator, so csv.writer quotes
    a field holding a lone carriage return as well as one holding a newline,
    and then joined with a bare newline.
    """
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, float):
            return f"{float(f'{x:.12g}'):.12g}"
        return str(x)

    def row(fields) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        return buf.getvalue()[:-2]

    lines = [row((
        "graph_id", "n", "m", "zagreb", "alpha", "spectrum", "energy", "eta",
        "id", "kind", "applicable", "reason", "value", "holds", "gap", "equality",
    ))]
    t = v.spectra
    k = len(t.alphas)
    for r in range(len(t)):
        g = t.graphs[r // k]
        prefix = [
            v.graph_ids[r // k], g.n, g.m, g.zagreb, cell(t.alphas[r % k]),
            ";".join(cell(x) for x in t.rho[r].tolist()), cell(float(t.energy[r])),
            int(t.eta[r]),
        ]
        for ev in row_view(v, r):
            lines.append(row(prefix + [
                ev.bound_id, ev.kind, cell(ev.applicable), cell(ev.reason),
                cell(ev.value), cell(ev.holds), cell(ev.gap), cell(ev.equality),
            ]))
    return "\n".join(lines) + "\n"


def reports_to_json_reference(v) -> str:
    """JSON report of the verdict table `v` written with `json.dumps`, one
    compact object per row.

    Each float is rounded to 12 significant digits and parsed back; None is
    null. Keys follow the row's graph id and spectrum fields, then each
    bound's verdict.
    """
    def r12(x):
        return None if x is None else float(f"{x:.12g}")

    lines = []
    t = v.spectra
    k = len(t.alphas)
    for r in range(len(t)):
        g = t.graphs[r // k]
        lines.append(json.dumps({
            "graph_id": v.graph_ids[r // k],
            "n": g.n,
            "m": g.m,
            "zagreb": g.zagreb,
            "alpha": r12(t.alphas[r % k]),
            "spectrum": [r12(x) for x in t.rho[r].tolist()],
            "energy": r12(float(t.energy[r])),
            "eta": int(t.eta[r]),
            "bounds": [
                {
                    "id": ev.bound_id,
                    "kind": ev.kind,
                    "applicable": ev.applicable,
                    "reason": ev.reason,
                    "value": r12(ev.value),
                    "holds": ev.holds,
                    "gap": r12(ev.gap),
                    "equality": ev.equality,
                }
                for ev in row_view(v, r)
            ],
        }, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def spectrum_row_reference(graph_id: str, table, r: int) -> dict:
    """Row r of the spectrum table `table` as `spectrum` writes it, as a
    dict with every float rounded to 12 significant digits and parsed back:
    Gamma = |prod s_i| is 0.0 at a singular shift and None where the product
    overflows a float64."""
    def r12(x):
        return float(f"{x:.12g}")

    k = len(table.alphas)
    g, rho, shift = table.graphs[r // k], table.rho[r], float(table.shift[r])
    s = rho - shift
    gamma_det = 0.0  # at a singular shift; inf where the product overflows
    if table.log_gamma[r] > -math.inf:
        with np.errstate(over="ignore"):
            gamma_det = abs(float(np.prod(s)))
    return {
        "graph_id": graph_id,
        "alpha": r12(table.alphas[r % k]),
        "n": g.n,
        "m": g.m,
        "zagreb": g.zagreb,
        "connected": g.connected,
        "spectrum": [r12(x) for x in rho.tolist()],
        "shift": r12(shift),
        "centered": [r12(x) for x in s.tolist()],
        "energy": r12(float(table.energy[r])),
        "eta": int(table.eta[r]),
        "two_s": r12(float(table.two_s[r])),
        "gamma_det": r12(gamma_det) if math.isfinite(gamma_det) else None,
        "theta": r12(float(table.theta[r])),
    }


def spectrum_text_reference(graph_ids, table) -> str:
    """`spectrum`'s output for `table`, one `json.dumps` of
    `spectrum_row_reference` per row, compact separators."""
    k = len(table.alphas)
    return "".join(json.dumps(spectrum_row_reference(graph_ids[r // k], table, r),
                              separators=(",", ":")) + "\n" for r in range(len(table)))


def bound_closed_forms(n: float, m: float, zagreb: float, max_degree: float, alpha: float,
                       shift: float, energy: float, eta: int, two_s: float, log_gamma: float,
                       theta: float, rho_1: float) -> dict:
    """Per bound id, a function of no arguments giving (value, target) of
    that bound on one row, in Python floats: `math.sqrt` and `** 2` in the
    expression trees the paper's formulas are written in, term by term and
    left to right, with ln(x / Gamma) as ln x - log_gamma. The graph's
    integers come in as floats, as the bound table reads them. The logs are
    `np.log`, as in the table: `math.log` differs from it in the last bit on
    a few inputs in ten thousand on some builds. Only an applicable row's
    forms are defined."""
    def star_radius():
        disc = alpha ** 2 * (max_degree + 1) ** 2 + 4.0 * max_degree * (1.0 - 2.0 * alpha)
        return alpha * (max_degree + 1) + math.sqrt(max(disc, 0.0))

    def koolen(inner):
        return 2.0 * m / n + math.sqrt((n - 1) * max(inner, 0.0))

    def koolen_alpha():
        avg = 2.0 * m / n
        inner = two_s - (1.0 - alpha) ** 2 * avg * avg
        return (1.0 - alpha) * avg + math.sqrt((n - 1) * max(inner, 0.0))

    root = math.sqrt(zagreb / n)
    return {
        "ub_mcclelland": lambda: (math.sqrt(two_s * n), energy),
        "ub_koolen_alpha": lambda: (koolen_alpha(), energy),
        "ub_koolen_energy": lambda: (koolen(2.0 * m - (2.0 * m / n) * (2.0 * m / n)), energy),
        "ub_koolen_signless": lambda: (
            koolen(2.0 * m + zagreb - (4.0 * m * m / n) * (1.0 + 1.0 / n)), 2.0 * energy),
        "ub_eta": lambda: (2.0 * (n - 1) + 2.0 * (eta - 1) * (alpha * n - 1.0)
                           - 4.0 * alpha * eta * m / n, energy),
        "ub_log_zagreb": lambda: (
            alpha ** 2 * zagreb + (1.0 - alpha) ** 2 * 2.0 * m
            - (2.0 * alpha * m / n ** 2) * (2.0 * alpha * n * m + 2.0 * alpha * m + n)
            + (float(np.log(theta)) - log_gamma) + (4.0 * alpha * m / n) * root
            - root * (root - 1.0), energy),
        "ub_log_degree": lambda: (
            alpha ** 2 * zagreb + (1.0 - alpha) ** 2 * 2.0 * m
            + (float(np.log(2.0 * m * (1.0 - alpha) / n)) - log_gamma)
            - (2.0 * alpha * m / n ** 2) * (2.0 * n * alpha * m + 2.0 * alpha * m - 4.0 * m + n)
            - (2.0 * m / n ** 2) * (2.0 * m - n), energy),
        "lb_frobenius_asstated": lambda: (math.sqrt(2.0 * max(
            alpha ** 2 * zagreb + (1.0 - alpha) ** 2 * 2.0 * m - 2.0 * (alpha * m) ** 2 / n,
            0.0)), energy),
        "lb_frobenius_repaired": lambda: (math.sqrt(2.0 * two_s), energy),
        "lb_average_degree": lambda: (4.0 * (1.0 - alpha) * m / n, energy),
        "lb_zagreb": lambda: (2.0 * root - 4.0 * alpha * m / n, energy),
        "lb_maxdeg": lambda: (star_radius() - 4.0 * alpha * m / n, energy),
        "lb_log": lambda: (root + (n - 1) + (log_gamma - float(np.log(theta))) - shift, energy),
        "rho_lb_star": lambda: (0.5 * star_radius(), rho_1),
        "rho_lb_chain": lambda: (root, rho_1),
    }


SPECTRAL_TOL = 1e-9  # eigenvalues of these small 0/1 matrices within this are equal
LOG_CLASS_TOL = 1e-7  # how far an alpha-eigenvalue may sit from alpha*k +- 1


def stated_classes(g, alpha: float) -> dict:
    """Per bound id, whether `g` lies in the equality class the paper names
    for it, read from its spectra alone; None for a bound that names no
    class. Meant for rows where the bound applies: its guards make `g`
    connected, with n >= 3 wherever a class needs it.

    With adjacency eigenvalues lambda_1 >= ... >= lambda_n (`alpha_eigs` at
    alpha = 0) and average degree d:
    - regular: lambda_1 = d;
    - Koolen (the three Koolen bounds): regular, and every |lambda_i| with
      i > 1 is the Cauchy-Schwarz radius sqrt(d (n - d) / (n - 1));
    - complete (ub_eta): lambda = n - 1 once and -1 n - 1 times;
    - inertia (lb_average_degree, lb_zagreb): regular, one positive
      eigenvalue and no zero one;
    - star (lb_maxdeg, rho_lb_star): lambda = +-sqrt(n - 1) and n - 2 zeros;
    - log (the three log bounds): regular, and every alpha-eigenvalue but
      the largest lies within LOG_CLASS_TOL of alpha*d + 1 or alpha*d - 1.
    """
    n = g.n
    lam = alpha_eigs(g, 0.0)
    d = 2.0 * len(g.edges) / n

    def near(x, y, tol=SPECTRAL_TOL):
        return bool(np.all(np.abs(np.asarray(x) - np.asarray(y)) <= tol))

    regular = near(lam[0], d)
    radius = math.sqrt(d * (n - d) / (n - 1)) if n > 1 else 0.0
    koolen = regular and near(np.abs(lam[1:]), radius)
    inertia = (regular and int(np.sum(lam > SPECTRAL_TOL)) == 1
               and not np.any(np.abs(lam) <= SPECTRAL_TOL))
    complete = near(lam, [n - 1.0] + [-1.0] * (n - 1))
    star = n >= 2 and near(lam, [math.sqrt(n - 1)] + [0.0] * (n - 2) + [-math.sqrt(n - 1)])
    rho = alpha_eigs(g, alpha)
    log = regular and near(np.abs(rho[1:] - alpha * d), 1.0, LOG_CLASS_TOL)
    return {
        "ub_koolen_alpha": koolen, "ub_koolen_energy": koolen, "ub_koolen_signless": koolen,
        "ub_eta": complete, "ub_log_zagreb": log, "ub_log_degree": log,
        "lb_average_degree": inertia, "lb_zagreb": inertia, "lb_maxdeg": star, "lb_log": log,
        "rho_lb_star": star, "rho_lb_chain": regular,
    }


def claims_reference(v) -> list[tuple]:
    """Per row of the verdict table `v`, its claims in bound order as
    `stated_classes` reads them: None where the row's bound is not
    applicable or names no class."""
    k = len(v.spectra.alphas)
    rows = []
    for r, codes in enumerate(v.reason.T.tolist()):
        stated = stated_classes(v.spectra.graphs[r // k], v.spectra.alphas[r % k])
        rows.append(tuple(None if code else stated.get(bid)
                          for bid, code in zip(BOUND_IDS, codes)))
    return rows
