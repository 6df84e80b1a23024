"""Finite rotations in coefficient space and the stencil generator: the test reference.

The library applies the rotation generator algebraically, by the ladder
action of L on the harmonics and the constant spin matrices.  This module
rotates instead: a spin-0 coefficient array A[m + L, j, ...] is turned by
the Euler-angle Wigner matrix exp(-i m alpha) d^j(beta) exp(-i n gamma),
synthesized, and the tensor slots are rotated; a fourth-order central
stencil over four such rotated copies, with step ROTATION_STEP, gives the
generator the library's is checked against.

wigner_d climbs rows s = -n of the j-recurrence of swsh.modes at the one
colatitude beta: d^j_{mn}(beta) = (-1)^n sqrt(4 pi / (2j+1)) p_{-n,j,m}(beta).
"""

import math

import numpy as np
from scipy.spatial.transform import Rotation

from swsh.modes import _climb
from swsh.tables import phi_synthesis, radial_factors

ROTATION_STEP = 1e-4
STENCIL = ((2.0, -1.0), (1.0, 8.0), (-1.0, -8.0), (-2.0, 1.0))


def wigner_d(L, beta):
    """d[j, m + L, n + L] = d^j_{mn}(beta), zero where |m| > j or |n| > j.

    f(R_y(beta)^-1 k) has the coefficients sum_n d^j_{mn}(beta) c_{jn} when
    f has the c_{jm}.  beta = 0 gives the identity exactly.
    """
    ms = np.arange(-L, L + 1)
    if beta == 0.0:  # the seeds would take log(0)
        return np.array([np.diag((abs(ms) <= j).astype(float)) for j in range(L + 1)])
    n, m = np.repeat(ms, ms.size), np.tile(ms, ms.size)
    p = np.zeros((n.size, L + 1, 1))
    _climb(-n, m, np.array([float(beta)]), L, p)
    d = p[:, :, 0].reshape(ms.size, ms.size, L + 1).transpose(2, 1, 0)
    norm = np.sqrt(4.0 * np.pi / (2 * np.arange(L + 1) + 1))[:, None, None]
    return d * norm * np.where(ms % 2, -1.0, 1.0)


def euler_zyz(axis, angle):
    """ZYZ Euler angles of R(axis, angle), read off its quaternion.

    R(axis, angle) = R_z(alpha) R_y(beta) R_z(gamma), accurate at small angles.
    """
    w = math.cos(0.5 * angle)
    x, y, z = math.sin(0.5 * angle) * np.asarray(axis, dtype=np.float64)
    plus, minus = math.atan2(z, w), math.atan2(-x, y)
    beta = 2.0 * math.atan2(math.hypot(x, y), math.hypot(w, z))
    return plus + minus, beta, plus - minus


def rotate_coefficients(coeffs, axis, angle):
    """Coefficients [m + L, j, ...] of f(R^-1 k), R = R(axis, angle), from those of f."""
    L = coeffs.shape[1] - 1
    m = np.arange(-L, L + 1).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    alpha, beta, gamma = euler_zyz(axis, angle)
    turned = np.einsum("jmn,nj...->mj...", wigner_d(L, beta), np.exp(-1j * gamma * m) * coeffs)
    return np.exp(-1j * alpha * m) * turned


def four_rotation_generator(section, axis):
    """i d/dpsi at psi = 0 of the pulled-back rotated section, by the stencil.

    At each stencil angle every component's coefficients are rotated and
    synthesized, and each tensor slot is rotated by R(axis, angle).
    """
    grid, rank = section.grid, section.rank
    coeffs = section.component_coefficients
    acc = 0.0
    for mult, w in STENCIL:
        angle = mult * ROTATION_STEP
        turned = rotate_coefficients(coeffs, axis, angle)
        pulled = np.moveaxis(phi_synthesis(grid, radial_factors(grid, 0, turned)), 0, -2)
        rot = Rotation.from_rotvec(angle * np.asarray(axis, dtype=np.float64)).as_matrix()
        pulled = np.einsum("ab,b...->a...", rot, pulled)
        if rank == 2:
            pulled = np.einsum("ab,cb...->ca...", rot, pulled)
        acc = acc + w * pulled
    lead = tuple(range(rank))
    return 1j * np.moveaxis(acc, lead, tuple(r + 2 for r in lead)) / (12.0 * ROTATION_STEP)
