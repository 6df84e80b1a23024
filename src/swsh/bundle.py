"""Polarization-bundle sections embedded in ambient tensor space.

A helicity-h state is represented as a tensor field on the sphere,
components in C^3 (|h|=1) or C^3 x C^3 (|h|=2), lying in the rank-one
fiber spanned by e_h = 2^{-|h|/2}(a +- i b)^{(x)|h|} for a tangent frame
(a, b).  This module builds those frames, embeds scalar spin-weighted
functions as sections, and realizes the split of the rotation generator
into a pointwise part (projected spin action) and a differential part
(projected orbital action), together with the finite-difference rotation
generator they are checked against.  That generator pulls each ambient
component back in coefficient space at the four angles of a central
stencil about an axis n: conjugated to the z axis, R(n, psi) = Q R_z(psi)
Q^-1, the rotation at each angle is a phase, so per axis the coefficients
turn by one pair of Wigner matrices d^j(theta_n), from the j-recurrence of
tables.py, around a per-m stencil kernel, and are synthesized once.  The
Wigner matrices, the azimuthal phases of Q and the kernel, scaled to the
generator, are built once per axis and cached together.

Rank bookkeeping: the components are flattened to D = 3^|h| per node, and
the spectral work keeps those slots last, the layout of the components
themselves and of the transform in tables.py.  A section is analyzed
once, by mode_coefficients, into A[m + L, j, D]; the turns contract over
m per j, the kernel over the slots per m, and _synthesis contracts with
the theta-derivative tables through contract_table and applies one DFT
matrix product over phi, giving samples grid.shape + (D, k).
The projector (I - k k^T)^{(x)|h|} is a real D x D matrix per node, built
once per frame; the spin matrices of all three axes act per tensor slot as
one constant real (3D, D) operator; and the orbital operator differentiates
ambient components as ordinary scalars (spectrally) before projecting.
Both projected operators apply the projector to all three axes in one
real matmul per node and return x, y and z as views of one array.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, UnsupportedHelicity
from .grid import GridFunction, SphereGrid, slot_power, standard_frame
from .tables import _tables, contract_table, mode_coefficients, mode_table, phi_synthesis, wigner_d

_STENCIL = ((2.0, -1.0), (1.0, 8.0), (-1.0, -8.0), (-2.0, 1.0))
ROTATION_STEP = 1e-4


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
        h = int(self.helicity)
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
        for name, value in (("grid", grid), ("helicity", h), ("components", components)):
            object.__setattr__(sec, name, value)
        return sec

    @property
    def rank(self):
        return abs(self.helicity)

    @cached_property
    def _coefficients(self):
        """Read-only spin-0 A[m + L, j, D] of the flattened components, L the grid's.

        The one analysis every operator below reads.
        """
        grid = self.grid
        a = mode_coefficients(grid, 0, self.components.reshape(grid.shape + (-1,)), grid.band_limit)
        a.setflags(write=False)
        return a

    @cached_property
    def component_coefficients(self):
        """Read-only spin-0 A[slots..., m + L, j] of every ambient component, L the grid's.

        A view of the one stored analysis, with the tensor slots leading.
        """
        a = self._coefficients
        a = a.reshape(a.shape[:2] + (3,) * self.rank)
        return np.moveaxis(a, (0, 1), (-2, -1))


def _synthesis(grid, coeffs, phi_orders=(0,)):
    """Samples [t, p, D, k] of d^k/dtheta^k (d/dphi)^phi_orders[k] of sum_{j, m} coeffs[m + L, j, D] Y_jm.

    Y_jm = p_{0jm}(theta) exp(i m phi), L the grid's band limit, each
    phi order 0 or 1.  contract_table with the theta-derivative tables of
    orders 0 .. k, the factor i m for d/dphi, then one DFT matrix product
    over phi, whose C-ordered [k, t, D, p] result is returned as a
    transposed view.
    """
    radial = contract_table(mode_table(grid, 0, range(len(phi_orders))), coeffs)
    for k, order in enumerate(phi_orders):
        if order:
            radial[k] *= 1j * np.arange(-grid.band_limit, grid.band_limit + 1)[:, None, None]
    return phi_synthesis(grid, radial.swapaxes(0, 1)).transpose(1, 3, 2, 0)


@dataclass(frozen=True)
class VectorOperatorResult:
    """The three Cartesian components of a vector operator applied to a section."""

    x: EmbeddedSection
    y: EmbeddedSection
    z: EmbeddedSection

    def __getitem__(self, i):
        return (self.x, self.y, self.z)[i]


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


def embed(f, frame=None):
    """Section f * e_h from a scalar of spin weight s = -h."""
    h = -f.spin_weight
    e = e_h_tensor(f.grid, h, frame=frame)
    extra = (None,) * abs(h)
    return EmbeddedSection._wrap(f.grid, h, f.samples[(..., *extra)] * e)


def extract(section, frame=None):
    """Scalar of spin weight -h recovered by contraction with conj(e_h)."""
    e = e_h_tensor(section.grid, section.helicity, frame=frame)
    axes = tuple(range(2, 2 + section.rank))
    vals = np.sum(np.conj(e) * section.components, axis=axes)
    return GridFunction._wrap(section.grid, -section.helicity, vals)


def transversality_residual(section, frame=None):
    """Max over nodes and slots of |k_hat contracted into the section|."""
    if frame is None:
        frame = standard_frame(section.grid)
    worst = 0.0
    for slot in range(section.rank):
        comps = np.moveaxis(section.components, 2 + slot, -1)
        contr = np.einsum("tp...c,tpc->tp...", comps, frame.k_hat)
        worst = max(worst, float(np.abs(contr).max()))
    return worst


def rank1_residual(section, frame=None):
    """Max deviation of the section from the line spanned by e_h."""
    f = extract(section, frame=frame)
    return float(
        np.abs(section.components - embed(f, frame=frame).components).max()
    )


def section_add(a, b):
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridMismatch("sections live on different grids")
    if a.helicity != b.helicity:
        raise UnsupportedHelicity(
            f"helicities differ: {a.helicity} vs {b.helicity}"
        )
    return EmbeddedSection._wrap(a.grid, a.helicity, a.components + b.components)


def section_scale(c, a):
    """The section c * a for a scalar c."""
    return EmbeddedSection._wrap(a.grid, a.helicity, complex(c) * a.components)


def section_norm(section):
    """Quadrature L2 norm over nodes and tensor slots."""
    return _comp_norm(section.grid, section.components, section.rank)


def _spin_generators(rank):
    """E[b * 3 + a, c] = (E_a)_{bc}, E_a = eps_a acting on every tensor slot, slots flattened."""
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[a, c, b] = 1.0, -1.0
    if rank == 2:  # eps_a (x) I + I (x) eps_a
        eye = np.eye(3)
        eps = eps[:, :, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * eps[:, None, :, None, :]
        eps = eps.reshape(3, 9, 9)
    gens = np.ascontiguousarray(eps.transpose(1, 0, 2).reshape(3 ** (rank + 1), 3**rank))
    gens.setflags(write=False)
    return gens


_SPIN = {rank: _spin_generators(rank) for rank in (1, 2)}


def _pair_matmul(op, x):
    """op @ x for a real operator stack op[..., i, j] and complex x[..., j, k], x as real pairs."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return np.matmul(op, x.view(np.float64)).view(np.complex128)


def _axis_sections(section, parts):
    """-i parts[..., a] as the x, y, z sections, views of one C-ordered array."""
    out = np.multiply(parts.transpose(3, 0, 1, 2), -1j, order="C")
    out = out.reshape((3,) + section.components.shape)
    return VectorOperatorResult(*(EmbeddedSection._wrap(section.grid, section.helicity, c) for c in out))


def apply_projected_spin(section, frame=None):
    """J_par = -i P E_a v: spin matrices per slot, then the transverse projector P.

    All three axes at once: E v by the constant generators, then one real
    matmul per node with the frame's projector.
    """
    if frame is None:
        frame = standard_frame(section.grid)
    rank, shape = section.rank, section.grid.shape
    v = section.components.reshape(shape + (3**rank, 1))
    spun = _pair_matmul(_SPIN[rank], v).reshape(shape + (3**rank, 3))
    return _axis_sections(section, _pair_matmul(frame.transverse_projector(rank), spun))


def apply_projected_orbital(section, frame=None, d_theta=None, d_phi=None):
    """J_perp = -i (e_phi,a P d/dtheta - e_theta,a P (1/sin) d/dphi) for every axis a.

    Components are differentiated as ordinary scalar functions on the
    sphere, spectrally by default, both derivatives from the section's
    analysis in one _synthesis.  Callers holding closed-form derivatives
    (frame fields, say, whose raw components are not band-limited) may pass
    d_theta/d_phi arrays of the component shape to bypass the spectral
    step.  The frame vectors are per-node scalars for P, so the two
    derivatives are projected once, in one real matmul per node, and the
    three axes are formed from them.
    """
    if frame is None:
        frame = standard_frame(section.grid)
    grid, rank = section.grid, section.rank
    D = 3**rank
    if (d_theta is None) != (d_phi is None):
        raise ValueError("pass both d_theta and d_phi or neither")
    if d_theta is None:
        # every ambient component at once: [..., 0] d/dphi, [..., 1] d/dtheta
        derivs = _synthesis(grid, section._coefficients, phi_orders=(1, 0))
    else:
        d_theta = np.asarray(d_theta, dtype=np.complex128)
        d_phi = np.asarray(d_phi, dtype=np.complex128)
        if d_theta.shape != section.components.shape:
            raise GridMismatch("d_theta shape does not match components")
        if d_phi.shape != section.components.shape:
            raise GridMismatch("d_phi shape does not match components")
        derivs = np.stack([d_phi, d_theta], axis=-1).reshape(grid.shape + (D, 2))
    derivs[..., 0] *= 1.0 / np.sin(grid.theta)[:, None, None]
    proj = _pair_matmul(frame.transverse_projector(rank), derivs)
    parts = proj[..., 1:] * frame.b_vec[..., None, :] - proj[..., :1] * frame.a_vec[..., None, :]
    return _axis_sections(section, parts)


def _turn_z_to(theta, phi):
    """R_z(phi) R_y(theta) multiplied out: the rotation taking z to the direction (theta, phi)."""
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return np.array([[cp * ct, -sp, cp * st], [sp * ct, cp, sp * st], [-st, 0.0, ct]])


def _axis_frame(axis, L):
    """Q taking z to the unit axis, with d(theta) and e = exp(-i m phi)[m + L] of its Euler angles.

    Q = R_z(phi) R_y(theta), so in coefficient space D(Q) = e d(theta) and,
    as d(-beta) = d(beta)^T, D(Q^-1) = d(theta)^T conj(e).  On the z axis,
    theta = 0, d is None: d(0) is the identity, and there the turns reduce
    to the phases e, which cancel around any kernel that acts per m.
    """
    x, y, z = axis
    theta, phi = math.atan2(math.hypot(x, y), z), math.atan2(y, x)
    e = np.exp(-1j * phi * np.arange(-L, L + 1))[:, None]
    return _turn_z_to(theta, phi), (wigner_d(L, theta) if theta else None), e


def _axis_stencil(axis, L, rank):
    """(d, e, kernel) of the generator about axis at band L, cached by (L, rank, axis).

    d and e are those of _axis_frame, e shaped [m + L, 1, 1]; on the z axis
    both are None, so the entry holds no d-table.  kernel[m + L]
    is the transpose of i/(12 ROTATION_STEP) Q^{(x) rank} K[m + L] Q^{(x) rank T},
    K[m + L] = sum_k w_k R_z(psi_k)^{(x) rank} exp(-i m psi_k) over the
    stencil angles psi_k the finite-difference sum about z on the
    flattened tensor slots: conjugated by Q it turns the slots about the
    axis.  The axis is checked before anything is built or cached.
    """
    u = np.asarray(axis, dtype=np.float64)
    if u.shape != (3,):
        raise ValueError(f"axis must be a vector of 3 components, got shape {u.shape}")
    key = ("stencil", L, rank, u.tobytes())
    entry = _tables.get(key)
    if entry is None:
        n = float(np.linalg.norm(u))
        if not abs(n - 1.0) <= 1e-8:
            raise ValueError(f"axis must be a finite unit vector, got {u.tolist()} of norm {n}")
        q, d, e = _axis_frame(u / n, L)
        m = np.arange(-L, L + 1)[:, None, None]
        kernel = np.zeros((2 * L + 1, 3**rank, 3**rank), dtype=np.complex128)
        for mult, w in _STENCIL:
            psi = mult * ROTATION_STEP
            kernel += w * np.exp(-1j * psi * m) * slot_power(_turn_z_to(0.0, psi), rank)
        qr = slot_power(q, rank)
        kernel = (1j / (12.0 * ROTATION_STEP)) * (qr @ kernel @ qr.T).transpose(0, 2, 1)
        e = None if d is None else e[:, :, None]
        entry = _tables.put(key, (d, e, np.ascontiguousarray(kernel)))
    return entry


def apply_J_rotation(section, axis):
    """Rotation generator i d/dpsi at psi=0 of the pulled-back rotated section.

    Fourth-order central stencil in the rotation angle with step
    ROTATION_STEP.  R(axis, psi) = Q R_z(psi) Q^-1 with Q taking z to the
    axis, so the components' coefficients A[m + L, j, D] are turned into
    the axis frame by one Wigner matrix per j, where the rotation at every
    stencil angle is a phase exp(-i m psi) and the stencil sum over angles
    and tensor slots, scaled to the generator, is one kernel per m, cached
    per axis; one Wigner matrix turns them back and one synthesis gives the
    generator, exactly for band-limited sections.  About z, where the turns
    are the identity, the kernel acts on the coefficients alone.
    """
    grid, rank = section.grid, section.rank
    coeffs = section._coefficients
    d, e, kernel = _axis_stencil(axis, coeffs.shape[1] - 1, rank)
    if d is None:
        turned = np.matmul(coeffs, kernel)
    else:
        # per j into the axis frame, sum_n d[j, n, m] conj(e[n]) A[n, j], viewed [j, m, D]
        tilted = (coeffs * np.conj(e)).transpose(1, 0, 2)
        tilted = np.matmul(d.swapaxes(1, 2), tilted.view(np.float64)).view(np.complex128)
        # per m the kernel on the slots, then per j back out of the axis frame
        spun = np.matmul(tilted.transpose(1, 0, 2), kernel).transpose(1, 0, 2)
        turned = np.matmul(d, spun.view(np.float64)).view(np.complex128).transpose(1, 0, 2)
        turned *= e
    generator = _synthesis(grid, turned).reshape(section.components.shape)
    return EmbeddedSection._wrap(grid, section.helicity, generator)


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
        for a, b, c in pairs:
            # [J_par_a, J_par_b] = 0, defect against i eps J_par_c
            comm = par_of_par[b][a].components - par_of_par[a][b].components
            worst["par_par"] = max(
                worst["par_par"], _comp_norm(section.grid, comm, section.rank) / nrm
            )
            d = comm - 1j * par[c].components
            defect["par"] = max(
                defect["par"], _comp_norm(section.grid, d, section.rank) / nrm
            )
            # [J_perp_a, J_par_b] = i eps J_par_c
            comm = perp_of_par[b][a].components - par_of_perp[a][b].components
            r = comm - 1j * par[c].components
            worst["perp_par"] = max(
                worst["perp_par"], _comp_norm(section.grid, r, section.rank) / nrm
            )
            # [J_perp_a, J_perp_b] = i eps (J_perp_c - J_par_c)
            comm = perp_of_perp[b][a].components - perp_of_perp[a][b].components
            r = comm - 1j * (perp[c].components - par[c].components)
            worst["perp_perp"] = max(
                worst["perp_perp"], _comp_norm(section.grid, r, section.rank) / nrm
            )
            d = comm - 1j * perp[c].components
            defect["perp"] = max(
                defect["perp"], _comp_norm(section.grid, d, section.rank) / nrm
            )
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
