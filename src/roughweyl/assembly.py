"""P1 finite-element assembly of the energy, mass, and weighted-mass forms.

`assemble` turns (mesh, metric, weight, boundary condition) into a Pencil:
sparse symmetric stiffness K with coefficient weights G^{-1} sqrt(det G)
(the divergence-form energy), mass Mm and weighted mass R against the
induced measure sqrt(det G) dx, the free-DOF map after Dirichlet
elimination, the constraint vector r_i = integral of rho * phi_i, and the
codimension flag tau of the coercivity subspace.

Dirichlet conditions are eliminated by row/column deletion, which keeps the
reduced stiffness positive definite and makes the bracketing inequalities
exact at the discrete level.

The three forms share one sparsity pattern, numbered once per call
(`_Pattern`): one entry per vertex and one per undirected triangle edge.
Every element matrix is symmetric, so each form sums only its six upper
entries (i <= j) into that pattern; each symmetric pair of the result is
that one sum, gathered into CSR order with exact zeros dropped. The
stiffness is formed from the edge vectors of each cell and one quadrature
sum of G / sqrt(det G), with no gradients and no batched matrix products.

`assemble` works one block of cells at a time (`fields._cell_blocks`): it
samples the metric and the weight at the block's quadrature points, writes
each cell's integrals of 1, rho^+ and rho^- (`fields._cell_integrands`),
forms the block's element entries of K, Mm and R and adds them into the
pattern's sums with `np.add.at`. That adds in element order, block after
block, as one whole-mesh `np.bincount` would, so assembled matrices are
bit-reproducible and equal bit for bit to a whole-mesh sum. (Only a
block of a few cells, such as a short last block, can round its mass
products `mu @ phi2` differently, since BLAS picks its kernel by size.)
Only the sums, the pattern, the per-cell integrals and what the pencil
keeps grow with the mesh, so the peak memory of `assemble` stays within
twice what the pencil keeps.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fields import (MetricField, WeightField, _cell_blocks,
                     _cell_integrands, sample_metric, triangle_quadrature)
from .mesh import Mesh

__all__ = [
    "BoundarySpec",
    "Pencil",
    "ModelingError",
    "assemble",
    "poincare_constant",
]

class ModelingError(ValueError):
    """A hypothesis of the model is violated (e.g. the weight mean vanishes)."""


class BoundarySpec:
    """Admissible boundary condition selected by edge tags.

    kind is one of 'dirichlet', 'neumann', 'mixed'; mixed carries the set of
    Dirichlet-tagged boundary segments. Degenerate mixed specs normalize:
    no tags means Neumann, and `resolve(mesh)` turns a mixed spec covering
    every tag of the mesh into plain Dirichlet and refuses a tag the mesh
    lacks.
    """

    def __init__(self, kind, dirichlet_tags=()):
        kind = str(kind).lower()
        if kind not in ("dirichlet", "neumann", "mixed"):
            raise ValueError("kind must be dirichlet, neumann, or mixed")
        tags = frozenset(int(t) for t in dirichlet_tags)
        if kind == "mixed" and not tags:
            kind = "neumann"
        if kind != "mixed":
            tags = frozenset()
        self.kind = kind
        self.dirichlet_tags = tags

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    @classmethod
    def neumann(cls):
        return cls("neumann")

    @classmethod
    def mixed(cls, tags):
        return cls("mixed", tags)

    def resolve(self, m: Mesh) -> "BoundarySpec":
        """Normalize against a mesh's tag set; ValueError for a mixed tag
        that no boundary edge of the mesh carries."""
        if self.kind != "mixed":
            return self
        present = set(int(t) for t in m.boundary_edges[:, 2])
        absent = self.dirichlet_tags - present
        if absent:
            raise ValueError(
                "mixed boundary tags {} are not on the mesh, whose tags are "
                "{}".format(sorted(absent), sorted(present)))
        if present <= self.dirichlet_tags:
            return BoundarySpec("dirichlet")
        return self

    def dirichlet_vertices(self, m: Mesh) -> np.ndarray:
        """Vertices incident to a Dirichlet-tagged boundary edge (sorted)."""
        spec = self.resolve(m)
        if spec.kind == "neumann":
            return np.array([], dtype=np.int64)
        edges = m.boundary_edges
        if spec.kind == "dirichlet":
            hit = np.ones(len(edges), dtype=bool)
        else:
            hit = np.isin(edges[:, 2], sorted(spec.dirichlet_tags))
        return np.unique(edges[hit][:, :2])

    def __eq__(self, other):
        return (isinstance(other, BoundarySpec) and self.kind == other.kind
                and self.dirichlet_tags == other.dirichlet_tags)

    def __repr__(self):
        if self.kind == "mixed":
            return "BoundarySpec(mixed, tags={})".format(sorted(self.dirichlet_tags))
        return "BoundarySpec({})".format(self.kind)


class Pencil:
    """Assembled matrices and DOF bookkeeping for one problem instance.

    K, Mm, R are full (unreduced) sparse symmetric matrices over all mesh
    vertices; `free_dofs` indexes the non-Dirichlet vertices; `r` is the
    full-length vector of weight functionals r_i = integral rho phi_i d mu;
    `tau` is 1 exactly when no vertex is Dirichlet, so that the free space
    holds the constants, which K annihilates, else 0. `vol` is Vol(M, g)
    and `masses` the pair (integral of rho over M^+, integral of |rho|
    over M^-), M^± the quadrature points where ±rho > 0, of the
    assembly's own sample for an assembled pencil. They give the Weyl
    constants (`weyl.weyl_constants`), and `masses` also picks the
    spectral ends the eigensolver runs and weighs their imbalance in its
    dense-or-Lanczos cost rule (`spectral` module docstring).
    """

    def __init__(self, K, Mm, R, free_dofs, r, tau, vol, masses):
        self.K = K
        self.Mm = Mm
        self.R = R
        self.free_dofs = np.asarray(free_dofs, dtype=np.int64)
        self.r = np.asarray(r, dtype=float)
        self.tau = int(tau)
        self.vol = float(vol)
        plus, minus = masses
        self.masses = (float(plus), float(minus))
        self._reduced = {}

    @property
    def n_vertices(self):
        return self.K.shape[0]

    @property
    def n_free(self):
        return len(self.free_dofs)

    def _restrict(self, name, mat):
        got = self._reduced.get(name)
        if got is None:
            got = mat.tocsr()
            idx = self.free_dofs
            if not np.array_equal(idx, np.arange(got.shape[0])):
                got = got[idx][:, idx].tocsr()
            self._reduced[name] = got
        return got

    @property
    def Kf(self):
        return self._restrict("K", self.K)

    @property
    def Mmf(self):
        return self._restrict("Mm", self.Mm)

    @property
    def Rf(self):
        return self._restrict("R", self.R)

    @property
    def r_free(self):
        return self.r[self.free_dofs]

    def __repr__(self):
        return "Pencil({} vertices, {} free, tau={})".format(
            self.n_vertices, self.n_free, self.tau
        )


# the six upper entries (i, j), i <= j, of a symmetric element matrix,
# listed by column: each column's first pair is (0, j)
_PAIRS = tuple((i, j) for j in range(3) for i in range(j + 1))
# the entry of pair (i, j) among a cell's three vertex entries and its three
# edge entries: vertex i when i == j, else local edge 3 - i - j
_SLOTS = tuple(i if i == j else 6 - i - j for i, j in _PAIRS)


class _Pattern:
    """The P1 sparsity pattern of a mesh, numbered once and shared by the
    forms assembled on it.

    Undirected entries are numbered diagonal first (vertex v is entry v),
    then each edge e = {i < j}, in the order of its key i * nv + j, as
    entry nv + e. `edges` (nt, 3) holds the entry of every cell's local
    edge k, which joins its local vertices k + 1 and k + 2 (mod 3), and
    `slots` hands a block of cells the entries of the upper pairs
    `_PAIRS` of its element matrices, for `np.add.at` to sum into. `form`
    gathers such sums into CSR through the int32 `take`, which lists, in
    CSR order, the entry that fills each stored position, whose column
    indices and row pointers are `indices` and `indptr`.
    """

    def __init__(self, triangles, nv):
        self.nv = nv
        self.triangles = triangles
        # the key i * nv + j of every local edge {i < j}, cell by cell
        key = np.empty(triangles.shape, dtype=np.int64)
        for k in range(3):
            a, b = triangles[:, (k + 1) % 3], triangles[:, (k + 2) % 3]
            np.minimum(a, b, out=key[:, k])
            key[:, k] *= nv
            key[:, k] += np.maximum(a, b)
        key = key.ravel()
        order = np.argsort(key)
        key = key[order]
        # the edges are the distinct keys, in order: the sorted keys start a
        # new edge wherever they change, so their running count of changes
        # numbers the edges, and entry nv + e is that count plus nv - 1
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        keys = key[new]
        self.ne = ne = len(keys)
        np.cumsum(new, out=key)
        del new
        key += nv - 1
        edges = np.empty_like(key)
        edges[order] = key
        del key, order
        self.edges = edges.reshape(triangles.shape)
        # CSR order sorts the stored positions by row * nv + col: vertex v
        # at v * (nv + 1), and each edge {lo < hi} at its key from its
        # lower end and at hi * nv + lo from its upper end
        lo, hi = np.divmod(keys, nv)
        diag = np.arange(nv)
        self.indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(1 + np.bincount(lo, minlength=nv)
                  + np.bincount(hi, minlength=nv), out=self.indptr[1:])
        col = np.concatenate([diag, hi, lo], dtype=np.int32,
                             casting="same_kind")
        hi *= nv
        hi += lo
        del lo
        pos = np.concatenate([diag * (nv + 1), keys, hi])
        del diag, keys, hi
        order = np.argsort(pos)
        del pos
        self.indices = col[order]
        del col
        # entry nv + ne + e of row/col is edge e from its upper end
        order[order >= nv + ne] -= ne
        self.take = order.astype(np.int32)

    def slots(self, cells):
        """The flat (b * 6,) entries of the upper pairs `_PAIRS` of the
        element matrices of the cells in the slice `cells`, cell by cell."""
        return np.concatenate((self.triangles[cells], self.edges[cells]),
                              axis=1).take(_SLOTS, axis=1).ravel()

    def form(self, sums):
        """The CSR symmetric matrix of the entry sums `sums`, exact zeros
        dropped, with index arrays of its own."""
        data = sums[self.take]
        del sums
        keep = data != 0.0
        if keep.all():
            indices, indptr = self.indices.copy(), self.indptr.copy()
        else:
            data, indices = data[keep], self.indices[keep]
            # every row holds its diagonal, so no row of the pattern is empty
            indptr = np.zeros_like(self.indptr)
            np.cumsum(np.add.reduceat(keep, self.indptr[:-1],
                                      dtype=indptr.dtype), out=indptr[1:])
        return sparse.csr_matrix((data, indices, indptr),
                                 shape=(self.nv, self.nv))


def _stiffness(corners, areas, G, sqrtdet, wq):
    """The (b, 6) upper entries e_i . H e_j / (4 |cell|) of the element
    stiffness of b cells with (b, 3, 2) `corners` and `areas`, from their
    flat metric samples `G` and `sqrtdet` at the rule weights `wq`."""
    b, nq = len(areas), len(wq)
    # edges[d, i]: coordinate d of the edge from local vertex i + 1 to i + 2
    edges = np.empty((2, 3, b))
    for i in range(3):
        for d in range(2):
            np.subtract(corners[:, (i + 2) % 3, d], corners[:, (i + 1) % 3, d],
                        out=edges[d, i])
    # H / (4 |cell|), its entries 00, 01, 10, 11 as the rows of h; only the
    # symmetric part of H reaches the symmetric K, so h[1] takes the mean
    # of the two off-diagonal entries
    G = G.reshape(b, nq, 4)
    scale = wq / sqrtdet.reshape(b, nq)
    h = np.zeros((4, b))
    for q in range(nq):
        h += G[:, q].T * scale[:, q]
    h /= 4.0 * areas
    h[1] += h[2]
    h[1] *= 0.5
    x, y = edges
    upper = np.empty((b, len(_PAIRS)))
    for p, (i, j) in enumerate(_PAIRS):
        if i == 0:
            hx = h[0] * x[j]
            hx += h[1] * y[j]
            hy = h[1] * x[j]
            hy += h[3] * y[j]
        np.multiply(x[i], hx, out=upper[:, p])
        upper[:, p] += y[i] * hy
    return upper


def assemble(m: Mesh, g: MetricField, w: WeightField, bc: BoundarySpec,
             quad_order: int = 2) -> Pencil:
    """Assemble the stiffness/mass/weighted-mass pencil on P1 elements.

    Per-cell contributions with barycentric quadrature (weights summing
    to 1, points strictly interior):

        K_e(i,j)  = sum_q w_q (G^{-1} grad phi_i) . grad phi_j sqrt(det G) |cell|
        Mm_e(i,j) = sum_q w_q phi_i phi_j sqrt(det G) |cell|
        R_e(i,j)  = sum_q w_q rho phi_i phi_j sqrt(det G) |cell|

    In 2-D the stiffness needs no gradients. With e_i the edge opposite
    vertex i, grad phi_i = rot90(e_i) / (2 |cell|), and the rotation turns
    the coefficient adj(G) / sqrt(det G) back into G / sqrt(det G), so

        K_e(i,j)  = e_i . H e_j / (4 |cell|),  H = sum_q w_q G / sqrt(det G)

    The comparability audit runs on every quadrature point. Dirichlet
    vertices (any incident Dirichlet-tagged edge) are removed from
    `free_dofs`.
    """
    bary, wq = triangle_quadrature(quad_order)
    blocks = _cell_blocks(m, bary)
    nt, nq, nv = m.num_triangles, len(wq), m.num_vertices
    pattern = _Pattern(m.triangles, nv)
    # mass and weighted mass share phi_i(x_q) phi_j(x_q), a bary product
    phi2 = np.stack([bary[:, i] * bary[:, j] for i, j in _PAIRS], axis=1)
    integrands = np.empty((3, nt))  # per cell: 1, rho^+ and rho^- d mu
    sums = [np.zeros(nv + pattern.ne) for _ in range(3)]  # K, Mm and R
    for cells, corners, areas, points in blocks:
        G, sqrtdet, mu = sample_metric(g, points, areas, wq)
        mu = mu.reshape(-1, nq)  # w_q sqrt(det G) |cell|
        rho = w.values(points).reshape(-1, nq)
        _cell_integrands(mu, rho, integrands[:, cells])
        # each entry adds its element entries in element order, as one
        # whole-mesh np.bincount would
        slots = pattern.slots(cells)
        np.add.at(sums[0], slots,
                  _stiffness(corners, areas, G, sqrtdet, wq).ravel())
        np.add.at(sums[1], slots, (mu @ phi2).ravel())
        np.add.at(sums[2], slots, ((mu * rho) @ phi2).ravel())
    # the last block's arrays, whose areas are a view of every cell's, and
    # the edge numbering, which only the scatter reads, die before the forms
    del G, sqrtdet, mu, rho, corners, areas, points, slots, pattern.edges
    vol, plus, minus = (float(np.sum(row)) for row in integrands)
    del integrands
    # each form's sums die as it is made
    K, Mm, R = (pattern.form(sums.pop(0)) for _ in range(3))

    dirichlet = bc.dirichlet_vertices(m)
    free = np.ones(nv, dtype=bool)
    free[dirichlet] = False
    free = np.flatnonzero(free)

    r = R @ np.ones(nv)  # r_i = integral rho phi_i d mu, by partition of unity
    # the edges of a cell sum to zero, so K 1 = 0 and the constants are in
    # the kernel of the energy exactly when no vertex is Dirichlet
    tau = int(dirichlet.size == 0)

    return Pencil(K, Mm, R, free, r, tau, vol, (plus, minus))


def poincare_constant(p: Pencil) -> float:
    """Smallest eigenvalue mu_min of the energy against the mass on Z(rho).

    Z(rho) is the whole free space when the energy is already coercive
    (tau = 0) and the hyperplane {r . v = 0} when tau = 1. The sandwich
    checker uses mu_min directly as its constant C (the inequality constant
    of the underlying norm bound is mu_min^{-1/2}). mu_min is 1 / (the top
    eigenvalue of the pencil (Mm, K) on Z(rho)), one weighted-problem
    solve with Mm in the place of R. Every pencil of 3 rows and up, which
    Lanczos reaches, takes one Lanczos run whatever its size: one value
    does not need the whole spectrum that a dense solve computes.
    """
    from .spectral import _signed_ends, project_constraint

    # Mm is positive definite, a single-sign pencil: only the top end runs
    top = _signed_ends(p.Mmf, p.Kf, project_constraint(p), (1.0, 0.0), 1,
                       "sparse", False)[0]
    mu = 1.0 / float(top[0])
    if mu <= 1e-12:
        raise ModelingError(
            "smallest energy eigenvalue {:.3e} is not positive; "
            "constraint projection failed".format(mu)
        )
    return mu
