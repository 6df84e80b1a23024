"""Quadrature grids on the sphere and sampled functions living on them.

The colatitude nodes are Gauss-Legendre in cos(theta), from Newton's
method on the three-term Legendre recurrence (gauss_legendre: O(n)
memory, no eigenproblem), and the azimuth is sampled uniformly.  With the
default node counts (L+1 colatitudes, 2L+1 azimuths) the quadrature
integrates products of two band-limited functions of band at most L
exactly, up to rounding, which is what the orthonormality and round-trip
checks rely on.  Each node count is capped at modes.NODES_MAX.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    NORTH,
    BandLimitExceeded,
    DomainError,
    GridMismatch,
    InsufficientNodes,
    SpinWeightMismatch,
    TooManyNodes,
    as_integer,
    pole_name,
)
from .modes import NODES_MAX, SWMode, profile
from .serial import fmt17


@dataclass(frozen=True)
class SphereGrid:
    """Product grid of n_theta Gauss-Legendre colatitudes x n_phi uniform azimuths.

    The three sizes are the grid; each node count is at most NODES_MAX.
    Its read-only nodes are derived from them: theta ascending (north pole
    side first) with its quadrature weights theta_weights, both from
    gauss_legendre(n_theta), and phi = 2 pi p / n_phi from phi = 0.  Equal
    grids compare, hash and share their cached tables alike.
    """

    band_limit: int
    n_theta: int
    n_phi: int

    def __post_init__(self):
        L = as_integer(self.band_limit, "band limit")
        if L < 0:
            raise ValueError(f"band limit must be a nonnegative integer, got {self.band_limit!r}")
        n_theta, n_phi = as_integer(self.n_theta, "n_theta"), as_integer(self.n_phi, "n_phi")
        if n_theta <= 0 or n_phi <= 0:
            raise InsufficientNodes(f"a grid needs positive node counts, got {n_theta} x {n_phi}")
        if n_theta < L + 1 or n_phi < 2 * L + 1:  # fewer nodes would alias silently
            raise InsufficientNodes(
                f"band limit {L} needs at least {L + 1} x {2 * L + 1} nodes, got {(n_theta, n_phi)}"
            )
        for name, n in (("n_theta", n_theta), ("n_phi", n_phi)):
            if n > NODES_MAX:  # before any node is built: the rule costs O(n^2) time
                raise TooManyNodes(f"{name} = {n} exceeds the supported maximum of {NODES_MAX} nodes")
        nodes = (*gauss_legendre(n_theta), 2.0 * np.pi * np.arange(n_phi) / n_phi)
        for name, value in zip(("theta", "theta_weights", "phi"), nodes):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        for name, value in (("band_limit", L), ("n_theta", n_theta), ("n_phi", n_phi)):
            object.__setattr__(self, name, value)

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    @property
    def phi_weight(self):
        return 2.0 * np.pi / self.n_phi

    @cached_property
    def _standard_frame(self):
        return _coordinate_frame(self)

    @cached_property
    def geometry_key(self):
        """(band_limit, n_theta, n_phi), built once per grid: the key of its cached tables.

        Two grids share a key exactly when they compare equal, and the
        key never holds the grid, so a dead grid's tables pin nothing
        but their own bytes.
        """
        return (self.band_limit, self.n_theta, self.n_phi)


NEWTON_PASSES = 4


def gauss_legendre(n):
    """The n-point Gauss-Legendre rule: colatitudes theta ascending, and their weights.

    Newton's method runs on the northern roots x = cos(theta) > 0 of P_n
    from x_k = (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1) / (4n + 2)),
    k = 1 .. n // 2, for NEWTON_PASSES passes, a fixed count, so the bytes
    repeat from run to run; from that start three reach rounding on every
    n sampled up to NODES_MAX.  Each pass takes P_n and P_n' from one pass
    of the recurrence, and the weights w = 2 / ((1 - x^2) P_n'(x)^2) take
    P_n' from the last.  An odd n's middle node is x = 0 exactly, and the
    southern half is the exact mirror of the northern one: theta -> pi -
    theta, the same weight.
    """
    k = np.arange(1, n // 2 + 1)
    x = (1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, [0.0] * (n % 2))  # P_n(0) = 0 exactly for odd n, so Newton keeps it
    for _ in range(NEWTON_PASSES):
        p, dp = _legendre(n, x)
        x -= p / dp
    theta, w = np.arccos(x), 2.0 / ((1.0 - x * x) * dp * dp)
    mirror = slice(n // 2)  # the northern nodes, whose mirrors run south in reverse
    return (np.concatenate((theta, np.pi - theta[mirror][::-1])),
            np.concatenate((w, w[mirror][::-1])))


def _legendre(n, x):
    """P_n(x) and P_n'(x) from the three-term recurrence (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


def make_grid(band_limit, n_theta=None, n_phi=None):
    """SphereGrid(L, n_theta, n_phi) with the defaults n_theta = L + 1, n_phi = 2L + 1.

    Every call builds a new grid; tables are cached by its geometry_key,
    so equal grids share them.
    """
    L = as_integer(band_limit, "band limit")
    return SphereGrid(band_limit, L + 1 if n_theta is None else n_theta,
                      2 * L + 1 if n_phi is None else n_phi)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of one spin-weighted function on a SphereGrid.

    samples has shape (n_theta, n_phi), colatitude varying slowest, and is
    a read-only copy of the values given, so later writes to the caller's
    array never reach it; the library's own producers hand over samples
    they have just made, through _wrap, without a copy.  The frame tag
    records which local tangent frame the values refer to; gauge rotations
    update it.  _analysis holds the read-only analysis matrix at band
    min(band limit, J_MAX) once transform.analysis_matrix has made it, and
    every later analysis of the function reads it or a slice of it.
    """

    grid: SphereGrid
    spin_weight: int
    samples: np.ndarray
    frame: str = "spherical"
    _analysis: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "spin_weight", as_integer(self.spin_weight, "spin weight"))
        arr = np.array(self.samples, dtype=np.complex128, order="C")
        if arr.shape != self.grid.shape:
            raise GridMismatch(
                f"samples shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _wrap(cls, grid, s, samples, frame="spherical"):
        """A function around fresh C-ordered complex128 samples of the grid's shape that nothing else holds."""
        f = cls.__new__(cls)
        samples.setflags(write=False)
        vars(f).update(grid=grid, spin_weight=s, samples=samples, frame=frame, _analysis=None)
        return f


def sample_swsh(grid, mode):
    """Evaluate one basis mode on every grid node, from its profile at the grid's colatitudes."""
    if not isinstance(mode, SWMode):
        mode = SWMode(*mode)
    if mode.j > grid.band_limit:
        raise BandLimitExceeded(
            f"mode j={mode.j} exceeds grid band limit {grid.band_limit}"
        )
    p = profile(mode.s, mode.j, mode.m, grid.theta)
    return GridFunction._wrap(grid, mode.s, p[:, None] * np.exp(1j * mode.m * grid.phi))


def inner_product(fa, fb):
    """Quadrature form of integral(conj(fa) * fb) over the sphere."""
    if fa.grid != fb.grid:
        raise GridMismatch("functions live on different grids")
    if fa.spin_weight != fb.spin_weight:
        raise SpinWeightMismatch(
            f"spin weights differ: {fa.spin_weight} vs {fb.spin_weight}"
        )
    ring = np.einsum("tp,tp->t", np.conj(fa.samples), fb.samples)
    return complex(np.dot(fa.grid.theta_weights, ring) * fa.grid.phi_weight)


def norm(f):
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def _gauge_angle(xi):
    """xi as a float64 array, every entry finite, else DomainError naming xi."""
    xi = np.asarray(xi, dtype=np.float64)
    if not np.isfinite(xi).all():
        raise DomainError("gauge angle xi must be finite")
    return xi


def apply_gauge(f, xi):
    """Rotate the tangent frame by angle xi; values pick up exp(i*s*xi).  A non-finite xi is refused."""
    xi = _gauge_angle(xi)
    phase = np.exp(1j * f.spin_weight * xi)
    samples = f.samples * np.broadcast_to(phase, f.samples.shape)
    tag = f.frame if f.frame.endswith("+gauge") else f.frame + "+gauge"
    return GridFunction._wrap(f.grid, f.spin_weight, samples, frame=tag)


@dataclass(frozen=True, eq=False)
class FrameField:
    """Orthonormal tangent pair (a, b) plus the radial direction on a grid.

    Each field has shape (n_theta, n_phi, 3), Cartesian components last.
    """

    grid: SphereGrid
    a_vec: np.ndarray
    b_vec: np.ndarray
    k_hat: np.ndarray

    def __post_init__(self):
        want = self.grid.shape + (3,)
        for name in ("a_vec", "b_vec", "k_hat"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != want:
                raise GridMismatch(f"{name} shape {arr.shape} != {want}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def standard_frame(grid):
    """Coordinate frame: a along increasing theta, b along increasing phi.

    Built once per grid; every call returns the same read-only FrameField.
    """
    return grid._standard_frame


def _coordinate_frame(grid):
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    ct, st = np.cos(th), np.sin(th)
    cp, sp = np.cos(ph), np.sin(ph)
    shape = grid.shape
    a = np.empty(shape + (3,))
    b = np.empty(shape + (3,))
    k = np.empty(shape + (3,))
    a[..., 0] = ct * cp
    a[..., 1] = ct * sp
    a[..., 2] = -st * np.ones_like(ph)
    b[..., 0] = -sp * np.ones_like(th)
    b[..., 1] = cp * np.ones_like(th)
    b[..., 2] = 0.0
    k[..., 0] = st * cp
    k[..., 1] = st * sp
    k[..., 2] = ct * np.ones_like(ph)
    return FrameField(grid, a, b, k)


def gauge_rotate_frame(frame, xi):
    """Rotate (a, b) by xi about k_hat, the same sense apply_gauge assumes.  A non-finite xi is refused."""
    xi = _gauge_angle(xi)
    c = np.cos(xi)[..., None] if xi.ndim else np.cos(xi)
    s = np.sin(xi)[..., None] if xi.ndim else np.sin(xi)
    a = c * frame.a_vec - s * frame.b_vec
    b = s * frame.a_vec + c * frame.b_vec
    return FrameField(frame.grid, a, b, frame.k_hat)


def frame_residual(frame):
    """Worst deviation from right-handed orthonormality across the grid."""
    a, b, k = frame.a_vec, frame.b_vec, frame.k_hat
    dots = [
        np.einsum("tpi,tpi->tp", a, a) - 1.0,
        np.einsum("tpi,tpi->tp", b, b) - 1.0,
        np.einsum("tpi,tpi->tp", k, k) - 1.0,
        np.einsum("tpi,tpi->tp", a, b),
        np.einsum("tpi,tpi->tp", a, k),
        np.einsum("tpi,tpi->tp", b, k),
    ]
    handed = np.cross(a, b) - k
    vals = [float(np.abs(d).max()) for d in dots]
    vals.append(float(np.abs(handed).max()))
    return max(vals)


def pole_limit_extrapolate(f, pole):
    """Directional limit of f at a pole from its nearest colatitude rings.

    The surviving azimuthal dependence at the pole is a pure phase fixed
    by the spin weight; it is stripped, the three nearest rings are
    averaged, and the ring means are extrapolated to the pole in the
    variable u = 1 -+ cos(theta), which is quadratic in the polar
    distance and makes a three-point fit accurate.  Returns the limit
    and a residual bounding both ring anisotropy and fit inconsistency.
    """
    grid = f.grid
    if grid.n_theta < 3:
        raise InsufficientNodes("pole extrapolation needs at least 3 colatitude rings")
    s = f.spin_weight
    if pole_name(pole) == NORTH:
        idx = [0, 1, 2]
        u = 1.0 - np.cos(grid.theta[idx])
        phase = np.exp(1j * s * grid.phi)
    else:
        n = grid.n_theta
        idx = [n - 1, n - 2, n - 3]
        u = 1.0 + np.cos(grid.theta[idx])
        phase = np.exp(-1j * s * grid.phi)
    rings = f.samples[idx, :] * phase[None, :]
    means = rings.mean(axis=1)
    # Lagrange weights for extrapolation to u = 0.
    w = np.empty(3)
    for k in range(3):
        others = [u[l] for l in range(3) if l != k]
        w[k] = (others[0] * others[1]) / ((others[0] - u[k]) * (others[1] - u[k]))
    limit = complex(np.dot(w, means))
    g0 = np.einsum("k,kp->p", w, rings)
    residual = float(np.abs(g0 - limit).max())
    return limit, residual


def write_grid_csv(f, path):
    """Write samples as CSV rows theta,phi,re,im with a one-line header.

    read_grid_csv splits the header on whitespace, so a frame tag that
    holds whitespace is refused before the file is opened.
    """
    if any(c.isspace() for c in f.frame):
        raise ValueError(f"frame tag {f.frame!r} holds whitespace, which the CSV header cannot carry")
    lines = [f"# spin_weight={f.spin_weight} L={f.grid.band_limit} frame={f.frame}"]
    phis = [fmt17(ph) for ph in f.grid.phi.tolist()]
    for th, row in zip(f.grid.theta.tolist(), f.samples):
        th = fmt17(th)
        for ph, re, im in zip(phis, row.real.tolist(), row.imag.tolist()):
            lines.append(f"{th},{ph},{fmt17(re)},{fmt17(im)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


NODE_RTOL = 1e-14


def _near(values, nodes):
    """Elementwise |values - nodes| <= NODE_RTOL * max(|nodes|, 1)."""
    return np.abs(values - nodes) <= NODE_RTOL * np.maximum(np.abs(nodes), 1.0)


def read_grid_csv(path):
    """Inverse of write_grid_csv, onto the canonical make_grid nodes.

    The grid is make_grid of the header's L and the file's node counts.
    Each row's theta and phi must lie within NODE_RTOL of that grid's node
    in colatitude-major order, so a file written before gauss_legendre
    made the nodes, whose numpy.polynomial nodes differ from them in the
    last bits, still loads.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        body = fh.read().split()
    if not header.startswith("# "):
        raise ValueError("missing header line")
    try:
        fields = dict(kv.split("=", 1) for kv in header[2:].split())
        s = int(fields["spin_weight"])
        L = int(fields["L"])
        frame = fields["frame"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed header {header!r}") from exc
    thetas, phis, res, ims = [], [], [], []
    for line in body:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed row {line!r}")
        thetas.append(float(parts[0]))
        phis.append(float(parts[1]))
        res.append(float(parts[2]))
        ims.append(float(parts[3]))
    thetas, phis = np.array(thetas), np.array(phis)
    # the rows on the first row's colatitude ring give the azimuth count
    n_phi = int(np.count_nonzero(_near(thetas, thetas[:1])))
    if n_phi == 0 or thetas.size % n_phi:
        raise ValueError("rows do not form a complete product grid")
    n_theta = thetas.size // n_phi
    grid = make_grid(L, n_theta=n_theta, n_phi=n_phi)
    if not (
        _near(thetas, np.repeat(grid.theta, n_phi)).all()
        and _near(phis, np.tile(grid.phi, n_theta)).all()
    ):
        raise ValueError(
            "rows must be the Gauss-Legendre grid nodes in colatitude-major order"
        )
    samples = (np.array(res) + 1j * np.array(ims)).reshape(n_theta, n_phi)
    return GridFunction._wrap(grid, s, samples, frame=frame)
