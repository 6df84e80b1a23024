"""Polarization-bundle sections embedded in ambient tensor space.

A helicity-h state is represented as a tensor field on the sphere,
components in C^3 (|h|=1) or C^3 x C^3 (|h|=2), lying in the rank-one
fiber spanned by e_h = 2^{-|h|/2}(a +- i b)^{(x)|h|} for a tangent frame
(a, b).  This module builds those frames, embeds scalar spin-weighted
functions as sections, and realizes the split of the rotation generator
J_n = n.L (x) 1 - i n.E into a pointwise part, the projected spin action
J_par = -i P E, and a differential part, the projected orbital action
J_perp = P (L (x) 1), together with the generator they are checked
against.  P = (I - k k^T)^{(x)|h|}, k the node's direction, is the
transverse projector.

Every operator is built from two parts: the orbital samples
(L_a (x) 1) v, a = x, y, z, exact in coefficient space (L_z by m, L_x
and L_y by the ladder shifts of operators.py), which each section
synthesizes once and keeps, and the spin action E_a v, pointwise.
J_perp is P times the first, J_par -i P times the second, and the
generator about any axis n is sum_a n_a (L_a v - i E_a v).

Rank bookkeeping: the components are flattened to D = 3^|h| per node, and
the spectral work keeps those slots last, the layout of the components
themselves and of the transform in tables.py.  A section is analyzed
once, by mode_coefficients, into A[m + L, j, D]; its orbital samples are
one mode_synthesis of the three ladder-shifted copies [m + L, j, D, 3].
The spin matrices of all three axes act per tensor slot, on every node
at once, as one real GEMM of the components, read as real pairs, with a
constant.  Both parts are samples [t, p, D, 3].  The projector
is a real D x D matrix per node, cached with the tables of tables.py by
grid geometry and rank, and the one factor that varies per node: both
projected operators apply it to all three axes in one real matmul per
node, and return x, y and z as views of one axis-first array [3, t, p,
D].  The standard frame's fiber tensor e_h, which embed, extract and
rank1_residual read when given no frame, is cached with the tables by
grid geometry and h.
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
from .tables import _tables, mode_coefficients, mode_synthesis, pair_matmul


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
    def _orbital(self):
        """Read-only samples [t, p, D, 3] of (L_a (x) 1) v, a = x, y, z: the orbital generators on every component.

        On the one analysis A[m + L, j, D]: L_z = m, L_x = (L_+ + L_-)/2 and
        L_y = (L_+ - L_-)/2i by the ladder shifts.  All three axes are one
        coefficient array [m + L, j, D, 3] and one mode_synthesis.
        """
        a = self._coefficients
        L = a.shape[1] - 1
        up, down = ladder_shift(a, +1), ladder_shift(a, -1)
        coeffs = np.stack((0.5 * (up + down), 0.5j * (down - up), np.arange(-L, L + 1)[:, None, None] * a), axis=-1)
        orbital = np.ascontiguousarray(mode_synthesis(self.grid, 0, coeffs).transpose(0, 3, 1, 2))
        orbital.setflags(write=False)
        return orbital

    @cached_property
    def _rotation_generators(self):
        """Read-only real gens[a] = the samples [t, p, D] of J_a = (L_a (x) 1) v - i E_a v, as real pairs.

        Laid out axis first, so the generator about n is one real product n @ gens.
        """
        gens = self._orbital - 1j * _spin_action(self)
        gens = np.ascontiguousarray(gens.transpose(3, 0, 1, 2)).reshape(3, -1).view(np.float64)
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


def _spin_action(section):
    """Fresh E_a v [t, p, D, 3], a = x, y, z: the spin matrices on every tensor slot of every node.

    One real GEMM of the components, read as real pairs, with a constant.
    Made per call, not kept on the section: it costs one small GEMM, while
    keeping it would hold three more copies of the components on every
    section J_par meets.
    """
    rank = section.rank
    pairs = section.components.reshape(-1, 3**rank).view(np.float64)
    return (pairs @ _SPIN_PAIRS[rank]).view(np.complex128).reshape(section.grid.shape + (3**rank, 3))


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


def apply_projected_spin(section):
    """J_par = -i P E_a v: the spin action on the section, then the transverse projector P.

    All three axes at once, in one real matmul per node with the grid's projector.
    """
    parts = pair_matmul(_projector(section.grid, section.rank), _spin_action(section))
    return _axis_sections(section, np.multiply(parts.transpose(3, 0, 1, 2), -1j, order="C"))


def apply_projected_orbital(section):
    """J_perp = P (L_a (x) 1) v: the section's orbital generators, then the transverse projector P.

    L_a acts on every ambient component as on a scalar function, so this is
    -i P (e_phi,a d/dtheta - e_theta,a (1/sin) d/dphi) v in the coordinate
    frame.  All three axes at once, in one real matmul per node with the
    grid's projector.
    """
    parts = pair_matmul(_projector(section.grid, section.rank), section._orbital)
    return _axis_sections(section, np.ascontiguousarray(parts.transpose(3, 0, 1, 2)))


def apply_J_rotation(section, axis):
    """Rotation generator J_n = n.L (x) 1 - i n.E: i d/dpsi at psi=0 of the pulled-back rotated section.

    Exact for sections whose components are band-limited at the grid's
    band: L acts on the section's analysis, E on its samples as given, so
    on other samples the spin term also carries the content above the
    band that the analysis drops.  The generator is linear in the unit
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


def _spin_and_orbital(sections):
    """J_par and J_perp of each section, each read through a fresh section that nothing keeps.

    J_perp caches the analysis and the orbital samples on the section it
    reads; here they die with the fresh section once both products are
    taken, so a report holds the components of its intermediate sections
    and nothing more.
    """
    spin, orbital = [], []
    for sec in sections:
        fresh = EmbeddedSection._wrap(sec.grid, sec.helicity, sec.components)
        spin.append(apply_projected_spin(fresh))
        orbital.append(apply_projected_orbital(fresh))
    return spin, orbital


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
        (par,), (perp,) = _spin_and_orbital([section])
        par_of_par, perp_of_par = _spin_and_orbital(par)
        par_of_perp, perp_of_perp = _spin_and_orbital(perp)

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
