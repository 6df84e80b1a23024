"""Integer bookkeeping of rotation-group multiplets.

Spectra are multisets of irreducibles V_j recorded as multiplicity maps.
A spectrum either describes a complete (finite-support, exact
everywhere) collection, j_max = None, or is the truncation of an
infinite tower, exact only for j <= j_max and unspecified above.  Tensor
products track that soundness window explicitly so cutoff artifacts can
never masquerade as structure; see spectrum_tensor.

factor_search answers: which orbital spectra O satisfy
V_a (x) O = target on the sound window?  It solves the equation as a
linear recurrence in l, with one free multiplicity for each j = 1..a.  The
answer need not be unique, even without a cutoff: the massless helicity-1
tower factors exactly over both l in {0, 3, 6, ...} and l in {2, 5, 8, ...}.

mode_counts gives the number of transform modes at each j, the count the
massless spectra are checked against.  Every j_max, l_max and search
window is at most MULTIPLET_J_MAX, checked before anything is built.
Nothing here needs numpy.
"""

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType

from .errors import NegativeSpin, SearchBudgetExceeded, as_integer, check_multiplet_j
from .serial import json_dumps


def _as_integer(value, name):
    """as_integer, with a decimal string (a JSON key, say) read as the integer it spells."""
    return as_integer(int(value) if isinstance(value, str) else value, name)


@dataclass(frozen=True, eq=False)
class MultipletSpectrum:
    """Multiplicity map j -> count; j_max = None means exact everywhere."""

    multiplicities: "MappingProxyType"
    j_max: "int | None" = None

    def __post_init__(self):
        clean = {}
        for j, count in self.multiplicities.items():
            j = _as_integer(j, "multiplet label j")
            count = _as_integer(count, f"multiplicity of j={j}")
            if j < 0:
                raise ValueError(f"multiplet label j={j} is negative")
            if count < 0:
                raise ValueError(f"multiplicity of j={j} is negative: {count}")
            if count:
                clean[j] = count
        j_max = self.j_max
        if j_max is not None:
            j_max = _as_integer(j_max, "j_max")
            bad = [j for j in clean if j > j_max]
            if bad:
                raise ValueError(f"entries above cutoff j_max={j_max}: {sorted(bad)}")
        object.__setattr__(self, "multiplicities", MappingProxyType(clean))
        object.__setattr__(self, "j_max", j_max)

    @property
    def complete(self):
        return self.j_max is None

    def multiplicity(self, j):
        if self.j_max is not None and j > self.j_max:
            raise ValueError(
                f"spectrum is unspecified above its cutoff j_max={self.j_max}"
            )
        return self.multiplicities.get(j, 0)

    def dimension(self):
        """Total dimension of the stored window."""
        return sum((2 * j + 1) * c for j, c in self.multiplicities.items())

    def max_j(self):
        return max(self.multiplicities, default=-1)

    def sorted_items(self):
        return sorted(self.multiplicities.items())

    def __eq__(self, other):
        if not isinstance(other, MultipletSpectrum):
            return NotImplemented
        return (
            self.j_max == other.j_max
            and dict(self.multiplicities) == dict(other.multiplicities)
        )

    __hash__ = None


def spectrum(multiplicities, j_max=None):
    return MultipletSpectrum(dict(multiplicities), j_max)


def tensor_decompose(a, b):
    """V_a (x) V_b = V_|a-b| + ... + V_(a+b), each once."""
    a, b = as_integer(a, "a"), as_integer(b, "b")
    for name, val in (("a", a), ("b", b)):
        if val < 0:
            raise NegativeSpin(f"{name}={val} is negative")
    return spectrum({j: 1 for j in range(abs(a - b), a + b + 1)})


def spectrum_tensor(sa, sb):
    """Multiplicity convolution of two spectra with a sound cutoff.

    A truncated factor is only known up to its cutoff, and each
    multiplet V_k of the other factor smears content by +-k in j, so the
    product is certain only up to (cutoff - largest partner spin).  The
    result carries the tightest such window; both factors complete gives
    a complete result.
    """
    if sa.complete and sb.complete:
        cutoff = None
    else:
        bounds = []
        if sa.j_max is not None:
            bounds.append(sa.j_max - sb.max_j())
        if sb.j_max is not None:
            bounds.append(sb.j_max - sa.max_j())
        cutoff = min(bounds)
    out = {}
    for ja, ca in sa.multiplicities.items():
        for jb, cb in sb.multiplicities.items():
            for j in range(abs(ja - jb), ja + jb + 1):
                if cutoff is not None and j > cutoff:
                    continue
                out[j] = out.get(j, 0) + ca * cb
    if cutoff is not None and cutoff < -1:
        cutoff = -1
    return spectrum(out, cutoff)


def massless_spectrum(h, j_max):
    """One multiplet per j >= |h|: V_|h| + V_(|h|+1) + ..., truncated."""
    h, j_max = abs(as_integer(h, "h")), as_integer(j_max, "j_max")
    check_multiplet_j(j_max, f"j_max={j_max}")
    if j_max < h:
        raise ValueError(f"j_max={j_max} is below |h|={h}")
    return spectrum({j: 1 for j in range(h, j_max + 1)}, j_max)


def massive_spectrum(s, j_max):
    """Massive spin-s tower: (2j+1) V_j below j=s, then (2s+1) V_j, truncated."""
    s, j_max = as_integer(s, "s"), as_integer(j_max, "j_max")
    check_multiplet_j(j_max, f"j_max={j_max}")
    if s < 0:
        raise NegativeSpin(f"s={s} is negative")
    if j_max < 0:
        raise ValueError(f"j_max={j_max} is negative")
    return spectrum(
        {j: (2 * j + 1 if j < s else 2 * s + 1) for j in range(j_max + 1)}, j_max
    )


def factor_search(target, a, l_max=None, max_mult=3, branch_limit=64):
    """All orbital spectra O with V_a (x) O = target, multiplicities <= max_mult.

    For a truncated target the equation is enforced on the sound window
    min(target cutoff, l_max - a); orbital content that cannot influence
    the window is canonically zero.  For a complete target the equation
    is enforced everywhere.

    With delta_0 = t_0 and delta_j = t_j - t_(j-1), the equation
    t_j = sum_(l=|j-a|)^(j+a) o_l reads o_a = delta_0,
    o_(a-j) + o_(a+j) = delta_j for 1 <= j <= a, and
    o_(j+a) = o_(j-a-1) + delta_j for j > a.  So each chain l, l + 2a + 1, ...
    is fixed by its first member: the chain through a outright, and each
    pair of chains through a - j and a + j, j <= window, by one free
    x_j = o_(a-j).  A value of x_j is admissible if every member of both
    chains lies in [0, max_mult] up to l_top and is 0 above it; the answer
    is the product of the admissible values, or none if a pair has none.
    A depth-first walk over the pairs, with c_k values at pair k,
    branches sum_k [c_k > 1] * prod_(i<k) c_i times; more than
    branch_limit raises SearchBudgetExceeded before anything is
    enumerated.

    a, l_max, max_mult and branch_limit must be integers, or ValueError;
    an l_max, or a window, past MULTIPLET_J_MAX is refused before the walk.
    Returns complete spectra, deterministically ordered.
    """
    a = as_integer(a, "a")
    if a < 0:
        raise NegativeSpin(f"a={a} is negative")
    if not isinstance(target, MultipletSpectrum):
        raise TypeError("target must be a MultipletSpectrum")
    if l_max is not None:
        l_max = as_integer(l_max, "l_max")
        check_multiplet_j(l_max, f"l_max={l_max}")
    max_mult, branch_limit = as_integer(max_mult, "max_mult"), as_integer(branch_limit, "branch_limit")
    if max_mult < 1:
        raise ValueError(f"max_mult must be positive, got {max_mult}")
    if branch_limit < 0:
        raise ValueError(f"branch_limit must be nonnegative, got {branch_limit}")

    if target.complete:
        if l_max is None:
            l_max = target.max_j() + a
        l_top = l_max
        window = l_top + a
    else:
        if l_max is None:
            l_max = target.j_max + a
        window = min(target.j_max, l_max - a)
        l_top = min(l_max, window + a)
    if l_top < 0 or window < 0:
        return []
    if target.complete and target.max_j() > window:
        return []  # content beyond what any admitted orbital factor can reach
    check_multiplet_j(window, f"factor search window j <= {window}")  # a default l_max, a or cutoff

    want = [target.multiplicities.get(j, 0) for j in range(window + 1)]
    delta = want[:1] + [want[j] - want[j - 1] for j in range(1, window + 1)]

    def chain(start, o):
        # o_l along l = start, start + 2a + 1, ...; None if one is out of range
        members = {}
        for l in range(start, window + a + 1, 2 * a + 1):
            if l > start:
                o += delta[l - a]
            if not (0 <= o <= max_mult if l <= l_top else o == 0):
                return None
            members[l] = o
        return members

    fixed = chain(a, delta[0])
    if fixed is None:
        return []
    pairs = []
    for j in range(1, min(a, window) + 1):  # no equation reads a pair past the window
        values = []
        # o_(a+j) = delta[j] - x lies in [0, max_mult] too, so x needs no wider range
        for x in range(max(0, delta[j] - max_mult), min(delta[j], max_mult) + 1):
            low, high = chain(a - j, x), chain(a + j, delta[j] - x)
            if low is not None and high is not None:
                values.append({**low, **high})
        if not values:
            return []
        pairs.append(values)

    branches, paths = 0, 1
    for values in pairs:
        if len(values) > 1:
            branches += paths
        paths *= len(values)
    if branches > branch_limit:
        raise SearchBudgetExceeded(
            f"factor search exceeded {branch_limit} branch points"
        )
    results = [
        spectrum({l: o for part in (fixed, *picks) for l, o in part.items()})
        for picks in product(*pairs)
    ]
    results.sort(key=lambda sp: tuple(sp.sorted_items()))
    return results


def mode_counts(spin_weight, j_max):
    """Number of independent modes at each j up to j_max."""
    s, j_max = abs(as_integer(spin_weight, "spin weight")), as_integer(j_max, "j_max")
    check_multiplet_j(j_max, f"j_max={j_max}")
    return {j: (2 * j + 1 if j >= s else 0) for j in range(j_max + 1)}


def spectrum_to_json(sp):
    payload = {
        "j_max": sp.j_max if sp.j_max is not None else sp.max_j(),
        "multiplicities": {str(j): c for j, c in sp.sorted_items()},
    }
    return json_dumps(payload)
