"""Six-strut tensegrity graph: canonical geometry, validation, edge lengths.

The canonical structure is the expanded octahedron (Jessen-type): 12 nodes,
6 rigid struts in three orthogonal parallel pairs, 24 tendons, and a surface
of 8 equilateral plus 12 isosceles triangles.  Three base nodes form an
anchored tendon triangle in the z = 0 plane and serve as the fixed reference
frame for state reconstruction.

Node labeling convention (canonical build):
  0, 1, 2       anchored base triangle
  3, 6, 9       strut partners of nodes 0, 1, 2
  4/5, 7/8, 10/11  the three fully free struts
Struts are (0,3), (4,5), (1,6), (7,8), (2,9), (10,11).  Tendon indices 0..2
are the base triangle edges (0,1), (1,2), (0,2); indices 3..23 are the
remaining pairs in lexicographic node order.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import TopologyError, json_float, json_floats, json_int, read_json, write_json

SQRT6_OVER_4 = np.sqrt(6.0) / 4.0
CANONICAL_TENDONS = (
    (0, 1), (1, 2), (0, 2), (0, 7), (0, 9), (1, 3), (1, 10), (2, 5), (2, 6), (3, 7),
    (3, 10), (3, 11), (4, 6), (4, 8), (4, 10), (4, 11), (5, 6), (5, 8), (5, 9), (6, 10),
    (7, 9), (7, 11), (8, 9), (8, 11),
)


@dataclass(frozen=True)
class Tendon:
    """One tension member: endpoint node ids, rest length in m.  Its tendon index
    is its position in Topology.tendons; sensor k measures tendon k."""

    i: int
    j: int
    rest_length: float


# index arrays of the member equations; see Topology.members
MemberTable = namedtuple(
    "MemberTable",
    "i j free anchors row_tendon strut_rows jac_at u_at u_sign")


@dataclass(frozen=True)
class Topology:
    """Immutable description of the 12-node, 6-strut, 24-tendon structure."""

    strut_length: float
    struts: tuple[tuple[int, int], ...]
    tendons: tuple[Tendon, ...]
    anchored: frozenset[int]
    nominal_coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.asarray(self.nominal_coords, dtype=float)
        coords.flags.writeable = False
        object.__setattr__(self, "nominal_coords", coords)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(len(self.nominal_coords)))

    @property
    def free_nodes(self) -> tuple[int, ...]:
        return tuple(n for n in self.nodes if n not in self.anchored)

    def rest_lengths(self) -> np.ndarray:
        """Tendon rest lengths in tendon-index order, shape (24,)."""
        return np.array([t.rest_length for t in self.tendons])

    @cached_property
    def members(self) -> MemberTable:
        """Member index arrays, built on first use and kept with the topology.

        Rows: the anchored-triangle tendons, the struts, then the other tendons
        in tendon-index order; row n joins nodes i[n] and j[n] at length
        ``tendon_lengths[row_tendon[n]]``, or at the strut length on the
        ``strut_rows`` (where row_tendon is 0).  ``free`` holds the free nodes
        ascending, ``anchors`` the anchored ones.  Flattened, the rows x
        free-coordinate Jacobian holds ``u.flat[u_at] * u_sign`` at ``jac_at``,
        for the (rows, 3) unit vectors ``u`` from j[n] to i[n]: +u at each free
        i[n], then -u at each free j[n].
        """
        ends = [(td.i, td.j, k) for k, td in enumerate(self.tendons)]
        base = [row for row in ends if {row[0], row[1]} <= self.anchored]
        return self._member_table(base + [(i, j, -1) for i, j in self.struts]
                                  + [row for row in ends if row not in base])

    @cached_property
    def strut_members(self) -> MemberTable:
        """The member table of the strut rows alone, in ``members``' order."""
        return self._member_table([(i, j, -1) for i, j in self.struts])

    @cached_property
    def tendon_members(self) -> MemberTable:
        """The member table of the tendon rows alone, in tendon-index order."""
        return self._member_table([(td.i, td.j, k) for k, td in enumerate(self.tendons)])

    def _member_table(self, rows) -> MemberTable:
        """The table of ``rows``, (i, j, tendon index or -1 for a strut) each."""
        i, j, tendon = np.array(rows, dtype=int).reshape(-1, 3).T
        free = np.array(self.free_nodes, dtype=int)

        # column of each node's x in the free-coordinate Jacobian; -1 if anchored
        col = np.full(len(self.nominal_coords), -1)
        col[free] = 3 * np.arange(len(free))
        xyz = np.arange(3)

        def scatter(end):
            at = np.arange(len(rows))[:, None] * 3 * len(free) + col[end][:, None] + xyz
            kept = np.repeat(col[end] >= 0, 3)
            return at.reshape(-1)[kept], np.flatnonzero(kept)

        (plus_at, plus_u), (minus_at, minus_u) = scatter(i), scatter(j)
        table = MemberTable(i, j, free, np.array(sorted(self.anchored), dtype=int),
                            np.maximum(tendon, 0), np.flatnonzero(tendon < 0),
                            np.concatenate([plus_at, minus_at]),
                            np.concatenate([plus_u, minus_u]),
                            np.repeat([1.0, -1.0], [len(plus_u), len(minus_u)]))
        for arr in table:  # shared by every caller, like nominal_coords
            arr.flags.writeable = False
        return table


def build_canonical(strut_length: float = 0.30) -> Topology:
    """Build the canonical expanded-octahedron topology.

    Nodes sit at the 12 cyclic permutations of (0, +-1, +-2) scaled by
    strut_length / 4, rigidly transformed so one equilateral tendon triangle
    (the anchored base) lies in the z = 0 plane with its centroid at the
    origin and node 0 on the +x axis.  Each strut joins the two nodes that
    differ only in the sign of their largest-magnitude coordinate; the 24
    tendons (CANONICAL_TENDONS) are the node pairs at distance
    strut_length * sqrt(6) / 4, which is every tendon's rest length.  A
    topology file's rest_length_m gives pre-strained tendons.
    """
    if not np.isfinite(strut_length) or strut_length <= 0:
        raise TopologyError(f"strut_length must be > 0, got {strut_length}")

    # The 12 points in label order: anchors 0..2 on the (-,-,-) octant face,
    # partners 3/6/9, free struts (4,5), (7,8), (10,11).
    pts = np.array([
        (-2, 0, -1), (0, -1, -2), (-1, -2, 0), (2, 0, -1), (2, 0, 1), (-2, 0, 1),
        (0, -1, 2), (0, 1, -2), (0, 1, 2), (-1, 2, 0), (1, -2, 0), (1, 2, 0),
    ], dtype=float) * (strut_length / 4.0)

    # Rigid transform: anchored face -> z = 0 plane, centroid -> origin,
    # node 0 -> +x axis.  The face normal (1,1,1)/sqrt(3) maps to +z.
    centroid = pts[[0, 1, 2]].mean(axis=0)
    e3 = np.full(3, 1.0) / np.sqrt(3.0)
    e1 = pts[0] - centroid
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    basis = np.vstack([e1, e2, e3])
    coords = (pts - centroid) @ basis.T

    struts = ((0, 3), (4, 5), (1, 6), (7, 8), (2, 9), (10, 11))

    rest = float(strut_length * SQRT6_OVER_4)
    return Topology(
        strut_length=float(strut_length),
        struts=struts,
        tendons=tuple(Tendon(i, j, rest) for i, j in CANONICAL_TENDONS),
        anchored=frozenset((0, 1, 2)),
        nominal_coords=coords,
    )


def validate(t: Topology) -> list[str]:
    """Check every topology invariant; return the complete violation list.

    An empty list means the topology is valid.  Violations are data, not
    exceptions: callers decide how to react.
    """
    out: list[str] = []
    n = len(t.nominal_coords)
    if n != 12:
        out.append(f"expected 12 nodes, found {n}")
    if len(t.struts) != 6:
        out.append(f"expected 6 struts, found {len(t.struts)}")
    if len(t.tendons) != 24:
        out.append(f"expected 24 tendons, found {len(t.tendons)}")
    if not np.all(np.isfinite(t.nominal_coords)):
        out.append("nominal coordinates contain non-finite values")
    if not np.isfinite(t.strut_length) or t.strut_length <= 0:
        out.append(f"strut_length must be > 0, got {t.strut_length}")

    known = range(n)
    for i, j in t.struts:
        out.extend(f"strut {i}-{j} joins unknown node {v}"
                   for v in (i, j) if v not in known)
    for k, td in enumerate(t.tendons):
        out.extend(f"tendon {k} joins unknown node {v}"
                   for v in (td.i, td.j) if v not in known)
    out.extend(f"anchored node {v} is unknown" for v in sorted(t.anchored) if v not in known)

    strut_nodes = [n for pair in t.struts for n in pair]
    if len(set(strut_nodes)) != len(strut_nodes):
        out.append("struts do not partition the node set (shared node)")
    elif set(strut_nodes) != set(range(n)):
        out.append("struts do not partition the node set (uncovered node)")

    strut_set = {tuple(sorted(p)) for p in t.struts}
    tendon_set = set()
    for k, td in enumerate(t.tendons):
        pair = tuple(sorted((td.i, td.j)))
        if pair in strut_set:
            out.append(f"tendon {k} duplicates strut pair {pair}")
        if pair in tendon_set:
            out.append(f"duplicate tendon pair {pair}")
        tendon_set.add(pair)
    out.extend(rest_length_problems(t))

    degree = {i: 0 for i in known}
    for td in t.tendons:
        for v in (td.i, td.j):
            if v in known:
                degree[v] += 1
    for node, d in degree.items():
        if d != 4:
            out.append(f"node {node} tendon degree is {d}, expected 4")

    anchored = sorted(t.anchored)
    if len(anchored) != 3:
        out.append(f"expected exactly 3 anchored nodes, found {len(anchored)}")
    else:
        for i, j in combinations(anchored, 2):
            if tuple(sorted((i, j))) not in tendon_set:
                out.append(f"anchored nodes {i},{j} are not joined by a tendon")
        for node in anchored:
            if node in known and abs(t.nominal_coords[node, 2]) > 1e-9 * max(1.0, t.strut_length):
                out.append(f"anchored node {node} off ground plane (z = {t.nominal_coords[node, 2]:.3e})")
    return out


def rest_length_problems(t: Topology) -> list[str]:
    """One message per tendon whose rest length is not finite and > 0, in tendon order."""
    rest = t.rest_lengths()
    return [f"tendon {k}: rest length must be finite and > 0, got {rest[k]}"
            for k in np.flatnonzero(~(np.isfinite(rest) & (rest > 0)))]


def edge_lengths(t: Topology, coords) -> np.ndarray:
    """Euclidean tendon lengths in tendon-index order of 12x3 coordinates,
    or of a (frames, 12, 3) stack, which gives (frames, 24) lengths."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-2:] != (len(t.nominal_coords), 3) or coords.ndim > 3:
        raise TopologyError(f"state must be {len(t.nominal_coords)}x3, got {coords.shape}")
    return edge_pass(t.tendon_members, coords)[1]


def edge_pass(m: MemberTable, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Member vectors e = Ni - Nj of m's rows and their lengths d = |e| for
    (..., nodes, 3) coords, one frame or a stack: e is (..., rows, 3), d is
    (..., rows), each length bit-identical to np.linalg.norm of its row."""
    e = coords.take(m.i, -2) - coords.take(m.j, -2)
    return e, np.sqrt(np.vecdot(e, e))


def length_jacobian(m: MemberTable, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows of d|Ni - Nj| over the free-node coordinates (ascending node id, xyz
    within) for m's rows and their edge pass (e, d), or (frames, rows, columns)
    for the edge pass of a stack.  C-ordered on purpose: BLAS rounds products
    with a Fortran-ordered copy differently."""
    if d.ndim == 1:
        jac = np.zeros((len(d), 3 * len(m.free)))
        jac.reshape(-1)[m.jac_at] = (e / d[:, None]).take(m.u_at) * m.u_sign
        return jac
    u = (e / d[..., None]).reshape(len(d), -1)
    jac = np.zeros((len(d), d.shape[1], 3 * len(m.free)))
    jac.reshape(len(d), -1)[:, m.jac_at] = u[:, m.u_at] * m.u_sign
    return jac


def tendon_triangles(t: Topology) -> list[tuple[int, int, int]]:
    """All closed 3-cycles of tendons (the equilateral faces; 8 for canonical)."""
    adj = {n: set() for n in t.nodes}
    for td in t.tendons:
        adj[td.i].add(td.j)
        adj[td.j].add(td.i)
    tris = []
    for a in t.nodes:
        for b in adj[a]:
            if b <= a:
                continue
            for c in adj[a] & adj[b]:
                if c > b:
                    tris.append((a, b, c))
    return tris


def to_json_dict(t: Topology) -> dict:
    return {
        "strut_length_m": t.strut_length,
        "struts": [list(p) for p in t.struts],
        "tendons": [
            {"k": k, "i": td.i, "j": td.j, "rest_length_m": td.rest_length}
            for k, td in enumerate(t.tendons)
        ],
        "anchored": sorted(t.anchored),
        "nominal_coords_m": [[float(x) for x in row] for row in t.nominal_coords],
    }


def _topology_from_doc(d: dict) -> Topology:
    """Tendon rows in "k" order; the indices must be JSON integers 0..n-1, each once."""
    rows = sorted(d["tendons"], key=lambda r: json_int(r["k"]))
    ks = [r["k"] for r in rows]
    if ks != list(range(len(rows))):
        raise ValueError(f"tendon indices must be 0..{len(rows) - 1}, each once; got {ks}")
    return Topology(
        strut_length=json_float(d["strut_length_m"]),
        struts=tuple((json_int(a), json_int(b)) for a, b in d["struts"]),
        tendons=tuple(Tendon(json_int(r["i"]), json_int(r["j"]),
                             json_float(r["rest_length_m"])) for r in rows),
        anchored=frozenset(json_int(x) for x in d["anchored"]),
        nominal_coords=json_floats(d["nominal_coords_m"]),
    )


def save_topology(t: Topology, path) -> None:
    write_json(to_json_dict(t), path)


def load_topology(path) -> Topology:
    return read_json(path, TopologyError, _topology_from_doc)
