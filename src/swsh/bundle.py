"""Polarization-bundle sections embedded in ambient tensor space.

A helicity-h state is represented as a tensor field on the sphere,
components in C^3 (|h|=1) or C^3 x C^3 (|h|=2), lying in the rank-one
fiber spanned by e_h = 2^{-|h|/2}(a +- i b)^{(x)|h|} for a tangent frame
(a, b).  This module builds those frames, embeds scalar spin-weighted
functions as sections, and realizes the split of the rotation generator
into a pointwise part (projected spin action) and a differential part
(projected orbital action), together with the rotation generator they are
checked against.  That generator, J_n = n.L (x) 1 - i n.E, acts exactly
in coefficient space: L_z by m, L_x and L_y by the ladder shifts of
operators.py, and the spin matrices E_a on the tensor slots; the three
axes are synthesized once per section and cached on it, and the
generator about any axis n is sum_a n_a J_a.

Rank bookkeeping: the components are flattened to D = 3^|h| per node, and
the spectral work keeps those slots last, the layout of the components
themselves and of the transform in tables.py.  A section is analyzed
once, by mode_coefficients, into A[m + L, j, D].  The rotation
generators synthesize from it by mode_synthesis; J_perp contracts it with
its cached spin-0 table [m csc(theta) p, dp/dtheta] and applies the DFT
rows read with that table, in one cache read, as one matrix product over
phi.  One transpose lays either [..., p] result out as samples
grid.shape + (D, k).
The projector (I - k k^T)^{(x)|h|}, k the node's direction, is a real D x D
matrix per node, cached with the tables of tables.py by grid geometry and
rank; the spin matrices of all three axes act per tensor slot, on every
node at once, as one real GEMM of the components, read as real pairs,
with a constant; and the orbital operator differentiates ambient
components as ordinary scalars (spectrally) before projecting.  The
projector is the one factor that varies per node: both projected
operators apply it to all three axes in one real matmul per node, and
return x, y and z as views of one axis-first array [3, t, p, D], which
J_perp forms in place from the frame read axis first.  The standard
frame's fiber tensor e_h, which embed, extract and rank1_residual read
when given no frame, is cached with the tables by grid geometry and h.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatch, UnsupportedHelicity, as_integer
from .grid import GridFunction, SphereGrid, standard_frame
from .operators import ladder_shift
from .tables import (Operands, _tables, band_operands, contract_table, dft_rows, mode_coefficients, mode_synthesis,
                     pair_matmul, phi_synthesis, spin_tables)


@dataclass(frozen=True, eq=False)
class EmbeddedSection:
    """Ambient tensor samples of one helicity-h section.

    components has shape grid.shape + (3,)*|h| and is a read-only copy of
    the values given, so later writes to the caller's array reach neither
    it nor its analysis; the operators below hand over components they
    have just made, through _wrap, without a copy.  Transversality and
    rank-one fiber membership are properties of physical sections; they
    are measured by the residual helpers, not enforced here, because
    intermediate operator results carry small numerical violations.
    """

    grid: SphereGrid
    helicity: int
    components: np.ndarray

    def __post_init__(self):
        h = as_integer(self.helicity, "helicity")
        if abs(h) not in (1, 2):
            raise UnsupportedHelicity(f"|h| must be 1 or 2, got h={h}")
        object.__setattr__(self, "helicity", h)
        want = self.grid.shape + (3,) * abs(h)
        arr = np.array(self.components, dtype=np.complex128, order="C")
        if arr.shape != want:
            raise GridMismatch(f"components shape {arr.shape} != {want}")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @classmethod
    def _wrap(cls, grid, h, components):
        """A section around fresh C-ordered complex128 components that nothing else holds."""
        sec = cls.__new__(cls)
        components.setflags(write=False)
        vars(sec).update(grid=grid, helicity=h, components=components)
        return sec

    @property
    def rank(self):
        return abs(self.helicity)

    @cached_property
    def _coefficients(self):
        """Read-only spin-0 A[m + L, j, D] of the flattened components, L the grid's.

        The one analysis every operator below reads; components that are not
        all finite are refused.
        """
        grid = self.grid
        if not np.isfinite(self.components).all():
            raise ValueError("cannot analyze a section with non-finite components")
        a = mode_coefficients(grid, 0, self.components.reshape(grid.shape + (-1,)), grid.band_limit)
        a.setflags(write=False)
        return a

    @cached_property
    def _rotation_generators(self):
        """Read-only real gens[a] = the samples [t, p, D] of J_a, a = x, y, z, flattened as real pairs.

        J_a = L_a (x) 1 - i E_a on the one analysis A[m + L, j, D]: L_z = m,
        L_x = (L_+ + L_-)/2 and L_y = (L_+ - L_-)/2i by the ladder shifts,
        and the spin term A (-i E_a)^T from the constant generators, one GEMM
        over every (m, j) row.  All three axes are one coefficient array
        [m + L, j, D, 3] and one mode_synthesis; laid out axis first, the
        generator about n is one real product n @ gens.
        """
        a = self._coefficients
        L = a.shape[1] - 1
        up, down = ladder_shift(a, +1), ladder_shift(a, -1)
        coeffs = (a.reshape(-1, a.shape[-1]) @ _SPIN_TERM[self.rank]).reshape(a.shape + (3,))
        coeffs[..., 0] += 0.5 * (up + down)
        coeffs[..., 1] += 0.5j * (down - up)
        coeffs[..., 2] += np.arange(-L, L + 1)[:, None, None] * a
        samples = mode_synthesis(self.grid, 0, coeffs)  # [t, D, 3, p]
        gens = np.ascontiguousarray(samples.transpose(2, 0, 3, 1)).reshape(3, -1).view(np.float64)
        gens.setflags(write=False)
        return gens

    @cached_property
    def component_coefficients(self):
        """Read-only spin-0 A[m + L, j, slots...] of every ambient component, L the grid's.

        A view of the one stored analysis, its flat slot axis split into the tensor slots.
        """
        a = self._coefficients
        return a.reshape(a.shape[:2] + (3,) * self.rank)


VectorOperatorResult = namedtuple("VectorOperatorResult", "x y z")
VectorOperatorResult.__doc__ = """The three Cartesian components x, y, z of a vector operator applied to a section."""


def frame_m_vector(frame, sign):
    """Null combination (a + i*sign*b)/sqrt(2) of a tangent frame."""
    return (frame.a_vec + 1j * sign * frame.b_vec) / math.sqrt(2.0)


def e_h_tensor(grid, h, frame=None):
    """Unit fiber tensor e_h on every node, shape grid.shape + (3,)*|h|."""
    if abs(h) not in (1, 2):
        raise UnsupportedHelicity(f"|h| must be 1 or 2, got h={h}")
    if frame is None:
        frame = standard_frame(grid)
    m = frame_m_vector(frame, +1 if h > 0 else -1)
    if abs(h) == 1:
        return m
    return m[..., :, None] * m[..., None, :]


def _fiber(grid, h, frame):
    """e_h of the frame; with no frame, the standard frame's, read-only and cached.

    The standard frame's e_h depends on the grid alone, so it is cached in
    _tables by grid geometry and h.  A given frame's is built fresh.
    """
    if frame is not None:
        return e_h_tensor(grid, h, frame=frame)
    return _tables.cached(("fiber", grid.geometry_key, h), e_h_tensor, grid, h)


def embed(f, frame=None):
    """Section f * e_h from a scalar of spin weight s = -h."""
    h = -f.spin_weight
    e = _fiber(f.grid, h, frame)
    extra = (None,) * abs(h)
    return EmbeddedSection._wrap(f.grid, h, f.samples[(..., *extra)] * e)


def extract(section, frame=None):
    """Scalar of spin weight -h recovered by contraction with conj(e_h)."""
    e = _fiber(section.grid, section.helicity, frame)
    axes = tuple(range(2, 2 + section.rank))
    vals = np.sum(np.conj(e) * section.components, axis=axes)
    return GridFunction._wrap(section.grid, -section.helicity, vals)


def transversality_residual(section):
    """Max over nodes and slots of |k_hat contracted into the section|, k_hat the node's direction."""
    k_hat = standard_frame(section.grid).k_hat
    worst = 0.0
    for slot in range(section.rank):
        comps = np.moveaxis(section.components, 2 + slot, -1)
        contr = np.einsum("tp...c,tpc->tp...", comps, k_hat)
        worst = max(worst, float(np.abs(contr).max()))
    return worst


def rank1_residual(section, frame=None):
    """Max deviation of the section from the line spanned by e_h."""
    f = extract(section, frame=frame)
    return float(
        np.abs(section.components - embed(f, frame=frame).components).max()
    )


def section_add(a, b):
    if a.grid != b.grid:
        raise GridMismatch("sections live on different grids")
    if a.helicity != b.helicity:
        raise UnsupportedHelicity(
            f"helicities differ: {a.helicity} vs {b.helicity}"
        )
    return EmbeddedSection._wrap(a.grid, a.helicity, a.components + b.components)


def section_scale(c, a):
    """The section c * a for a scalar c, which must be finite."""
    c = complex(c)
    if not cmath.isfinite(c):
        raise DomainError("section scale must be finite")
    return EmbeddedSection._wrap(a.grid, a.helicity, c * a.components)


def section_norm(section):
    """Quadrature L2 norm over nodes and tensor slots."""
    return _comp_norm(section.grid, section.components, section.rank)


def _spin_generators(rank):
    """E^T[c, b * 3 + a] = (E_a)_{bc}, E_a = eps_a acting on every tensor slot, slots flattened."""
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[a, c, b] = 1.0, -1.0
    if rank == 2:  # eps_a (x) I + I (x) eps_a
        eye = np.eye(3)
        eps = eps[:, :, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * eps[:, None, :, None, :]
        eps = eps.reshape(3, 9, 9)
    return eps.transpose(2, 1, 0).reshape(3**rank, 3 ** (rank + 1))


def _read_only(arrays):
    """The dict arrays, each value made read-only."""
    for a in arrays.values():
        a.setflags(write=False)
    return arrays


# E^T on real pairs, [c * 2 + r, (b * 3 + a) * 2 + r], r = re, im: v @ it is E v on every node at once
_SPIN_PAIRS = _read_only({rank: np.kron(_spin_generators(rank), np.eye(2)) for rank in (1, 2)})
_SPIN_TERM = _read_only({rank: -1j * _spin_generators(rank) for rank in (1, 2)})  # (-i E_a)^T


def _axis_sections(section, out):
    """out[a], a = x, y, z, as the x, y, z sections, views of the fresh C-ordered out [3, t, p, D]."""
    out = out.reshape((3,) + section.components.shape)
    return VectorOperatorResult(*(EmbeddedSection._wrap(section.grid, section.helicity, c) for c in out))


def _projector(grid, rank):
    """Read-only P = (I - k k^T)^{(x) rank} on every node, shape grid.shape + (3**rank, 3**rank).

    k is the node's direction, so P depends on the grid alone.  It acts on
    the flattened tensor slots, P^{(x)2} as p (x) p.  Cached in _tables by
    grid geometry and rank.
    """
    return _tables.cached(("projector", grid.geometry_key, rank), _projector_of, grid, rank)


def _projector_of(grid, rank):
    k = standard_frame(grid).k_hat
    p = np.eye(3) - k[..., :, None] * k[..., None, :]
    if rank == 2:
        p = (p[..., :, None, :, None] * p[..., None, :, None, :]).reshape(grid.shape + (9, 9))
    return p


def _orbital_table(grid, L):
    """Fresh [k, m + L, j, t]: [m csc(theta) p_0, dp_0/dtheta] = lam [p_-1 + p_+1, p_-1 - p_+1] / 2."""
    lower, upper = spin_tables(grid, (-1, 1), L)
    half_lam = 0.5 * np.sqrt(np.arange(L + 1) * np.arange(1, L + 2))[:, None]  # lam = sqrt(j (j + 1))
    return np.stack([half_lam * (lower + upper), half_lam * (lower - upper)])


def _orbital_entry(grid, L):
    return Operands(_orbital_table(grid, L), dft_rows(grid, L))


def apply_projected_spin(section):
    """J_par = -i P E_a v: spin matrices per slot, then the transverse projector P.

    All three axes at once: E v on every node in one real GEMM of the
    components, read as real pairs, with a constant, then one real matmul
    per node with the grid's projector.
    """
    rank, shape = section.rank, section.grid.shape
    pairs = section.components.reshape(-1, 3**rank).view(np.float64)
    spun = (pairs @ _SPIN_PAIRS[rank]).view(np.complex128).reshape(shape + (3**rank, 3))
    parts = pair_matmul(_projector(section.grid, rank), spun)
    return _axis_sections(section, np.multiply(parts.transpose(3, 0, 1, 2), -1j, order="C"))


def apply_projected_orbital(section):
    """J_perp = -i (e_phi,a P d/dtheta - e_theta,a P (1/sin) d/dphi) for every axis a.

    e_theta, e_phi are the coordinate frame, the only one in which this is
    J_perp.  Components are differentiated as ordinary scalar functions on
    the sphere, spectrally: both derivatives come from the section's one
    analysis, contracted with J_perp's cached table, in one phi_synthesis.
    The frame vectors are per-node scalars for P, so the two derivatives
    are projected once, in one real matmul per node, and the three axes
    are formed from them axis first, from the frame read with its
    Cartesian axis leading.
    """
    grid, rank = section.grid, section.rank
    # every ambient component at once: [..., 0] (1/sin) d/dphi, [..., 1] d/dtheta
    a = section._coefficients  # analyzed first: it checks the band against J_MAX
    L = a.shape[1] - 1
    ops = band_operands(("orbital", grid.geometry_key), grid, L, _orbital_entry)
    radial = contract_table(ops.table, a)
    radial[0] *= 1j
    derivs = phi_synthesis(ops.synthesis, radial.swapaxes(0, 1)).transpose(1, 3, 2, 0)  # [t, p, D, k]
    proj = pair_matmul(_projector(grid, rank), derivs)
    frame = standard_frame(grid)
    out = np.multiply(proj[..., 1], frame.b_vec.transpose(2, 0, 1)[..., None], order="C")
    out -= np.multiply(proj[..., 0], frame.a_vec.transpose(2, 0, 1)[..., None], order="C")
    out *= -1j
    return _axis_sections(section, out)


def apply_J_rotation(section, axis):
    """Rotation generator J_n = n.L (x) 1 - i n.E: i d/dpsi at psi=0 of the pulled-back rotated section.

    Exact for band-limited sections.  The generator is linear in the unit
    axis n, so it is sum_a n_a J_a over the section's cached x, y and z
    generators (EmbeddedSection._rotation_generators).  The axis is checked
    before anything is built.
    """
    u = np.asarray(axis, dtype=np.float64)
    if u.shape != (3,):
        raise ValueError(f"axis must be a vector of 3 components, got shape {u.shape}")
    n = math.sqrt(u @ u)
    if not abs(n - 1.0) <= 1e-8:
        raise ValueError(f"axis must be a finite unit vector, got {u.tolist()} of norm {n}")
    generator = ((u / n) @ section._rotation_generators).view(np.complex128)
    return EmbeddedSection._wrap(section.grid, section.helicity, generator.reshape(section.components.shape))


def commutator_report(h, test_sections, floor=0.1):
    """Residuals of the nonstandard commutators over a batch of sections.

    All residuals are relative to each section's norm (zero sections
    contribute zero).  The two defect entries witness that the would-be
    standard SO(3) relations fail: they are expected to EXCEED the floor
    on at least one section, and the report records the largest observed
    value together with the floor used.  A defect is a norm, so the floor
    must be positive and finite for that check to say anything.
    """
    if abs(h) not in (1, 2):
        raise UnsupportedHelicity(f"|h| must be 1 or 2, got h={h}")
    if not 0.0 < floor < math.inf:
        raise ValueError(f"defect floor must be positive and finite, got {floor}")
    test_sections = list(test_sections)
    pairs = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    worst = {"par_par": 0.0, "perp_par": 0.0, "perp_perp": 0.0}
    defect = {"par": 0.0, "perp": 0.0}
    for section in test_sections:
        if section.helicity != h:
            raise UnsupportedHelicity(
                f"section helicity {section.helicity} does not match h={h}"
            )
        nrm = section_norm(section)
        if nrm == 0.0:
            continue
        par = apply_projected_spin(section)
        perp = apply_projected_orbital(section)
        par_of_perp = [apply_projected_spin(perp[i]) for i in range(3)]
        perp_of_par = [apply_projected_orbital(par[i]) for i in range(3)]
        perp_of_perp = [apply_projected_orbital(perp[i]) for i in range(3)]
        par_of_par = [apply_projected_spin(par[i]) for i in range(3)]

        def rel(x):
            return _comp_norm(section.grid, x, section.rank) / nrm

        for a, b, c in pairs:
            # [J_par_a, J_par_b] = 0, defect against i eps J_par_c
            comm = par_of_par[b][a].components - par_of_par[a][b].components
            worst["par_par"] = max(worst["par_par"], rel(comm))
            defect["par"] = max(defect["par"], rel(comm - 1j * par[c].components))
            # [J_perp_a, J_par_b] = i eps J_par_c
            comm = perp_of_par[b][a].components - par_of_perp[a][b].components
            worst["perp_par"] = max(worst["perp_par"], rel(comm - 1j * par[c].components))
            # [J_perp_a, J_perp_b] = i eps (J_perp_c - J_par_c)
            comm = perp_of_perp[b][a].components - perp_of_perp[a][b].components
            r = comm - 1j * (perp[c].components - par[c].components)
            worst["perp_perp"] = max(worst["perp_perp"], rel(r))
            defect["perp"] = max(defect["perp"], rel(comm - 1j * perp[c].components))
    return {
        "h": h,
        "n_sections": len(test_sections),
        "identity_residuals": worst,
        "defects": defect,
        "defect_floor": floor,
        "defects_exceed_floor": bool(
            defect["par"] >= floor and defect["perp"] >= floor
        ),
    }


def _comp_norm(grid, components, rank):
    """Quadrature L2 norm of components [t, p, slots...] over nodes and slots."""
    axes = tuple(range(1, 1 + rank + 1))
    ring = np.sum(np.abs(components) ** 2, axis=axes)
    return math.sqrt(max(float(np.dot(grid.theta_weights, ring) * grid.phi_weight), 0.0))
