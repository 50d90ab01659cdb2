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
(`_Pattern`): every vertex's diagonal entry and both orientations of every
triangle edge, in CSR order. Each form scatters its element matrices into
that pattern with one `np.bincount` in element order, so assembled
matrices are bit-reproducible, then symmetrizes each edge's pair of
entries to their mean and drops exact zeros. Element arrays are formed one
form at a time and the per-point metric samples are released as soon as
the stiffness coefficient is formed, so the peak memory of `assemble`
stays within a few times what the pencil keeps.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fields import MetricField, Quadrature, WeightField, triangle_quadrature
from .mesh import Mesh

__all__ = [
    "BoundarySpec",
    "Pencil",
    "ModelingError",
    "assemble",
    "poincare_constant",
]

_DENSE_LIMIT = 3000  # free-DOF count below which dense eigensolves are used


class ModelingError(ValueError):
    """A hypothesis of the model is violated (e.g. the weight mean vanishes)."""


class BoundarySpec:
    """Admissible boundary condition selected by edge tags.

    kind is one of 'dirichlet', 'neumann', 'mixed'; mixed carries the set of
    Dirichlet-tagged boundary segments. Degenerate mixed specs normalize:
    no tags means Neumann, and `resolve(mesh)` turns a mixed spec covering
    every tag of the mesh into plain Dirichlet.
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
        """Normalize against a mesh's tag set."""
        if self.kind != "mixed":
            return self
        present = set(int(t) for t in m.boundary_edges[:, 2])
        if present and present <= self.dirichlet_tags:
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
    `tau` is 1 exactly when the free space contains the constants with
    K 1 = 0 (pure Neumann), else 0. `quad` is the compacted `Quadrature`
    of the assembly (measure and rho), or None for a hand-built pencil.
    """

    def __init__(self, K, Mm, R, free_dofs, r, tau, mesh, bc, quad_order,
                 rho_range, quad=None):
        self.K = K
        self.Mm = Mm
        self.R = R
        self.free_dofs = np.asarray(free_dofs, dtype=np.int64)
        self.r = np.asarray(r, dtype=float)
        self.tau = int(tau)
        self.mesh = mesh
        self.bc = bc
        self.quad_order = int(quad_order)
        self.rho_range = (float(rho_range[0]), float(rho_range[1]))
        self.quad = quad
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
        return "Pencil({} vertices, {} free, tau={}, bc={})".format(
            self.n_vertices, self.n_free, self.tau, self.bc.kind
        )


def _element_slots(triangles, nv):
    """The sorted edge keys min * nv + max of a mesh, and the (nt, 3, 3)
    entry numbers of its element matrices (see `_Pattern`)."""
    # local edge k joins local vertices k + 1 and k + 2 (mod 3)
    a, b = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    keys, edge = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                           return_inverse=True)
    fwd = nv + edge.reshape(a.shape)
    bwd = fwd + len(keys)
    up = a < b  # local k + 1 is the lower end of edge k
    slots = np.empty(triangles.shape + (3,), dtype=np.intp)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        slots[:, k, k] = triangles[:, k]
        slots[:, i, j] = np.where(up[:, k], fwd[:, k], bwd[:, k])
        slots[:, j, i] = np.where(up[:, k], bwd[:, k], fwd[:, k])
    return keys, slots


class _Pattern:
    """The P1 sparsity pattern of a mesh, numbered once and shared by the
    forms assembled on it.

    Directed entries are numbered diagonal first (vertex v is entry v),
    then each undirected edge e = {i < j}, in the order of its key
    i * nv + j, as i -> j (entry nv + e) and as j -> i (entry nv + ne + e).
    `slots` (nt, 3, 3) numbers the entries of every element matrix;
    `order` lists the entries in CSR order, whose column indices and row
    pointers are `indices` and `indptr`.
    """

    def __init__(self, triangles, nv):
        self.nv = nv
        keys, self.slots = _element_slots(triangles, nv)
        self.ne = len(keys)
        lo, hi = np.divmod(keys, nv)
        diag = np.arange(nv)
        row = np.concatenate([diag, lo, hi])
        col = np.concatenate([diag, hi, lo])
        self.order = np.argsort(row * nv + col)
        self.indices = col[self.order].astype(np.int32)
        self.indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(np.bincount(row, minlength=nv), out=self.indptr[1:])

    def form(self, elements):
        """The CSR matrix (A + A^T) / 2 of the summed (nt, 3, 3) element
        matrices A, exact zeros dropped."""
        nv, ne = self.nv, self.ne
        v = np.bincount(self.slots.ravel(), weights=elements.ravel(),
                        minlength=nv + 2 * ne)
        # both orientations of an edge take the mean of their two sums
        fwd = v[nv:nv + ne]
        fwd += v[nv + ne:]
        fwd *= 0.5
        v[nv + ne:] = fwd
        data = v[self.order]
        keep = data != 0.0
        # every row holds its diagonal, so no row of the pattern is empty
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.add.reduceat(keep, self.indptr[:-1], dtype=indptr.dtype),
                  out=indptr[1:])
        return sparse.csr_matrix((data[keep], self.indices[keep], indptr),
                                 shape=(nv, nv))


def _stiffness_elements(corners, areas, coeff):
    """The (nt, 3, 3) element stiffness matrices |cell| B^T C B of cells
    with the given corners, areas and quadrature-summed coefficients C,
    where the columns of B are the constant P1 gradients."""
    # grad phi_i = rot90(edge opposite i) / (2 area)
    grads = corners[:, [2, 0, 1]] - corners[:, [1, 2, 0]]
    grads = grads[:, :, ::-1] * [-1.0, 1.0] / (2.0 * areas)[:, None, None]
    Ke = grads @ coeff @ grads.transpose(0, 2, 1)
    Ke *= areas[:, None, None]
    return Ke


def assemble(m: Mesh, g: MetricField, w: WeightField, bc: BoundarySpec,
             quad_order: int = 2) -> Pencil:
    """Assemble the stiffness/mass/weighted-mass pencil on P1 elements.

    Per-cell contributions with barycentric quadrature (weights summing
    to 1, points strictly interior):

        K_e(i,j)  = sum_q w_q (G^{-1} grad phi_i) . grad phi_j sqrt(det G) |cell|
        Mm_e(i,j) = sum_q w_q phi_i phi_j sqrt(det G) |cell|
        R_e(i,j)  = sum_q w_q rho phi_i phi_j sqrt(det G) |cell|

    The comparability audit runs on every quadrature point. Dirichlet
    vertices (any incident Dirichlet-tagged edge) are removed from
    `free_dofs`.
    """
    bc = bc.resolve(m)
    bary, wq = triangle_quadrature(quad_order)
    q = Quadrature(m, g, w, quad_order)
    corners, areas = q.corners, q.areas
    if areas.size == 0 or areas.min() <= 0.0:
        raise ValueError("mesh has nonpositive triangle areas")
    nt, nq, nv = m.num_triangles, len(wq), m.num_vertices

    # stiffness: coefficient G^{-1} sqrt(det G) = adj(G) / sqrt(det G),
    # 0-homogeneous in G in 2-D
    coeff = (wq / q.sqrtdet.reshape(nt, nq))[:, None, :] @ q.G.reshape(nt, nq, 4)
    coeff = (coeff[:, 0, [3, 1, 2, 0]] * [1.0, -1.0, -1.0, 1.0]).reshape(nt, 2, 2)
    q = q.compact()  # the per-point metric samples die here
    pattern = _Pattern(m.triangles, nv)
    K = pattern.form(_stiffness_elements(corners, areas, coeff))
    del corners, areas, coeff

    # mass and weighted mass share phi_i(x_q) phi_j(x_q) = bary outer products
    phi2 = (bary[:, :, None] * bary[:, None, :]).reshape(nq, 9)
    mu = q.measure.reshape(nt, nq)  # w_q sqrt(det G) |cell|
    Mm = pattern.form(mu @ phi2)
    R = pattern.form((mu * q.rho.reshape(nt, nq)) @ phi2)

    dirichlet = bc.dirichlet_vertices(m)
    free = np.ones(nv, dtype=bool)
    free[dirichlet] = False
    free = np.flatnonzero(free)

    ones = np.ones(nv)
    r = R @ ones  # r_i = integral rho phi_i d mu, by partition of unity

    mean = float(r.sum())
    scale = max(1.0, float(np.abs(r).sum()))
    if w.nonzero_mean_required and abs(mean) <= 1e-10 * scale:
        raise ModelingError("weight mean vanishes: integral of rho d mu = 0")

    # tau = 1 iff constants are free (no Dirichlet vertex) and K 1 = 0
    tau = 0
    if dirichlet.size == 0:
        drift = float(np.abs(K @ ones).max())
        knorm = float(np.abs(K.data).max()) if K.nnz else 1.0
        if drift <= 1e-10 * max(1.0, knorm):
            tau = 1

    rho_range = (float(q.rho.min()), float(q.rho.max())) if q.rho.size else (0.0, 0.0)
    return Pencil(K, Mm, R, free, r, tau, m, bc, quad_order, rho_range, quad=q)


class _Householder:
    """The reflector H = I - 2 u u^T that maps r onto a multiple of e_n.

    The first n-1 columns Q of H are an orthonormal basis of the hyperplane
    {v : r . v = 0}. Reductions onto it never form Q: Q^T A Q is H A H, a
    rank-two update of A, without its last row and column, and mapping
    vectors in or out costs O(n) per column.
    """

    def __init__(self, r):
        nrm = np.linalg.norm(r)
        if nrm == 0.0:
            raise ModelingError("constraint vector r vanishes")
        u = np.asarray(r, dtype=float).copy()
        u[-1] += np.copysign(nrm, u[-1] if u[-1] != 0 else 1.0)
        self.u = u / np.linalg.norm(u)

    def basis(self):
        """Q, the orthonormal (n, n-1) basis of the hyperplane."""
        n = len(self.u)
        return (np.eye(n) - 2.0 * np.outer(self.u, self.u))[:, : n - 1]

    def reduce(self, A):
        """Q^T A Q, F-contiguous, for a dense symmetric A, which it overwrites.

        H A H = A - u w^T - w u^T with w = 2 A u - 2 (u^T A u) u. The
        update is subtracted 64 rows at a time, so no n x n temporary is
        made; entry (i, j) loses u_i w_j + w_i u_j, the same sum as at
        (j, i), so the result stays exactly symmetric. A Fortran-ordered A
        is updated through its transpose, whose rows are contiguous.
        """
        u = self.u
        Au = A @ u
        w = 2.0 * Au - (2.0 * float(u @ Au)) * u
        B = A.T if A.flags.f_contiguous else A
        for i in range(0, len(u), 64):
            j = i + 64
            B[i:j] -= u[i:j, None] * w + w[i:j, None] * u
        return np.asfortranarray(A[:-1, :-1])

    def restrict(self, V):
        """Q^T V: coordinates in the basis of (columns of) V."""
        u = self.u
        return V[:-1] - 2.0 * np.multiply.outer(u[:-1], u @ V)

    def extend(self, Y):
        """Q Y: the vectors whose basis coordinates are (the columns of) Y."""
        u = self.u
        out = np.multiply.outer(u, -2.0 * (u[:-1] @ Y))
        out[:-1] += Y
        return out


def poincare_constant(p: Pencil, seed: int = 0) -> float:
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

    # Mm is positive definite: only the top end runs; dense limit 0
    top = _signed_ends(p.Mmf, p.Kf, project_constraint(p), (1.0, 1.0), 1,
                       0, seed, False)[0]
    mu = 1.0 / float(top[0])
    if mu <= 1e-12:
        raise ModelingError(
            "smallest energy eigenvalue {:.3e} is not positive; "
            "constraint projection failed".format(mu)
        )
    return mu
