"""P1 finite-element assembly of the energy, mass, and weighted-mass forms.

`assemble` turns (mesh, metric, weight, boundary condition) into a Pencil:
sparse symmetric stiffness K with coefficient weights G^{-1} sqrt(det G)
(the divergence-form energy), mass Mm and weighted mass R against the
induced measure sqrt(det G) dx, the free-DOF map after Dirichlet
elimination, the constraint vector r_i = integral of rho * phi_i, and the
codimension flag tau of the coercivity subspace.

Dirichlet conditions are eliminated by row/column deletion, which keeps the
reduced stiffness positive definite and makes the bracketing inequalities
exact at the discrete level. Element contributions are accumulated in a
fixed element order, so assembled matrices are bit-reproducible.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fields import MetricField, Quadrature, WeightField, triangle_quadrature
from .mesh import Mesh, triangle_areas

__all__ = [
    "BoundarySpec",
    "Pencil",
    "ModelingError",
    "assemble",
    "poincare_constant",
    "dump_matrix",
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
                 rho_range, meta=None, quad=None):
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
        self.meta = dict(meta or {})
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
            idx = self.free_dofs
            got = mat.tocsr()[idx][:, idx].tocsr()
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


def _symmetrize(A):
    return ((A + A.T) * 0.5).tocsr()


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
    corners = m.vertices[m.triangles]  # (nt, 3, 2)
    areas = triangle_areas(m)
    if areas.size == 0 or areas.min() <= 0.0:
        raise ValueError("mesh has nonpositive triangle areas")

    # constant P1 gradients: grad phi_i = rot90(edge opposite i) / (2 area)
    e0 = corners[:, 2] - corners[:, 1]
    e1 = corners[:, 0] - corners[:, 2]
    e2 = corners[:, 1] - corners[:, 0]
    edges = np.stack([e0, e1, e2], axis=1)  # (nt, 3, 2)
    grads = np.empty_like(edges)
    grads[:, :, 0] = -edges[:, :, 1]
    grads[:, :, 1] = edges[:, :, 0]
    grads /= (2.0 * areas)[:, None, None]

    q = Quadrature(m, g, w, quad_order)
    G = q.G
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
    Ginv = np.empty_like(G)
    Ginv[:, 0, 0] = G[:, 1, 1]
    Ginv[:, 1, 1] = G[:, 0, 0]
    Ginv[:, 0, 1] = -G[:, 0, 1]
    Ginv[:, 1, 0] = -G[:, 1, 0]
    Ginv /= det[:, None, None]

    rho = q.rho
    nt, nq = m.num_triangles, len(wq)
    Ginv = Ginv.reshape(nt, nq, 2, 2)
    sdet = q.sqrtdet.reshape(nt, nq)
    rhoq = rho.reshape(nt, nq)

    # stiffness: coefficient G^{-1} sqrt(det G); 0-homogeneous in G in 2-D
    coeff = np.einsum("q,tq,tqde->tde", wq, sdet, Ginv)
    Ke = np.einsum("tid,tde,tje,t->tij", grads, coeff, grads, areas)

    # mass and weighted mass share phi_i(x_q) phi_j(x_q) = bary outer products
    phi2 = bary[:, :, None] * bary[:, None, :]  # (q, 3, 3)
    Me = np.einsum("q,tq,qij,t->tij", wq, sdet, phi2, areas)
    Re = np.einsum("q,tq,qij,t->tij", wq, sdet * rhoq, phi2, areas)

    nv = m.num_vertices
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()

    def build(data):
        A = sparse.coo_matrix((data.ravel(), (rows, cols)), shape=(nv, nv))
        return _symmetrize(A.tocsr())

    K = build(Ke)
    Mm = build(Me)
    R = build(Re)

    dirichlet = bc.dirichlet_vertices(m)
    free = np.setdiff1d(np.arange(nv, dtype=np.int64), dirichlet)

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

    rho_range = (float(rho.min()), float(rho.max())) if rho.size else (0.0, 0.0)
    return Pencil(K, Mm, R, free, r, tau, m, bc, quad_order, rho_range,
                  meta={"mean_rho": mean}, quad=q.compact())


def _householder_basis(r):
    """Orthonormal basis (n, n-1) of the hyperplane {v : r . v = 0}."""
    n = len(r)
    nrm = np.linalg.norm(r)
    if nrm == 0.0:
        raise ModelingError("constraint vector r vanishes")
    u = r.astype(float).copy()
    u[-1] += np.copysign(nrm, u[-1] if u[-1] != 0 else 1.0)
    u /= np.linalg.norm(u)
    H = np.eye(n) - 2.0 * np.outer(u, u)
    return H[:, : n - 1]


def poincare_constant(p: Pencil, dense_limit: int = _DENSE_LIMIT,
                      seed: int = 0, tol: float = 1e-8,
                      maxiter: int = 2000) -> float:
    """Smallest eigenvalue mu_min of the energy against the mass on Z(rho).

    Z(rho) is the whole free space when the energy is already coercive
    (tau = 0) and the hyperplane {r . v = 0} when tau = 1. The sandwich
    checker uses mu_min directly as its constant C (the inequality constant
    of the underlying norm bound is mu_min^{-1/2}). `tol` and `maxiter`
    only steer the iterative path above `dense_limit`; callers that need
    mu_min merely to scale a spectral shift can loosen them.
    """
    nf = p.n_free
    if nf == 0:
        raise ValueError("no free DOFs")
    Kf, Mf = p.Kf, p.Mmf
    if p.tau == 1:
        rf = p.r_free
        if np.linalg.norm(rf) <= 1e-14:
            raise ModelingError("constraint vector r vanishes")
    if nf <= dense_limit:
        K = Kf.toarray()
        M = Mf.toarray()
        if p.tau == 1:
            Q = _householder_basis(p.r_free)
            K = Q.T @ K @ Q
            M = Q.T @ M @ Q
        from scipy.linalg import eigh

        vals = eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])
        mu = float(vals[0])
    else:
        from scipy.sparse.linalg import eigsh, lobpcg, splu

        if p.tau == 1:
            lu = splu(Mf.tocsc())
            Y = lu.solve(p.r_free).reshape(-1, 1)
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((nf, 4))
            vals, _ = lobpcg(Kf, X, B=Mf, Y=Y, largest=False, tol=tol,
                             maxiter=maxiter)
            mu = float(np.sort(vals)[0])
        else:
            vals = eigsh(Kf, k=1, M=Mf, sigma=0, which="LM",
                         return_eigenvectors=False)
            mu = float(vals[0])
    if mu <= 1e-12:
        raise ModelingError(
            "smallest energy eigenvalue {:.3e} is not positive; "
            "constraint projection failed".format(mu)
        )
    return mu


def dump_matrix(A, path):
    """Debug dump in coordinate `i j value` text format."""
    coo = sparse.coo_matrix(A)
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write("{} {} {}\n".format(i, j, repr(float(v))))
