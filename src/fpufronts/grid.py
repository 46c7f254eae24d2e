"""Uniform-grid profiles on [-L, L] and the unit-window averaging operator.

Profiles carry constant boundary extensions (-1 on the left, +1 on the right
for heteroclinic data; 0/0 for perturbations).  The averaging operator takes
the mean of a profile over the unit window centred at each node, realized as a
composite trapezoid sum; the grid is constrained so that half a window is an
integer number of cells, which makes the discrete operator exactly symmetric.

The trapezoid sum over a window of 2K cells is the sum of its cell means, so
every window is a difference of prefix sums and one application costs O(D),
independent of K.  The prefix sums run over the deviation from the two-sided
constant extension, whose own window average is added in closed form: where a
profile equals its extension over a whole window the deviation sum is exactly
zero, so averaged outer tails keep the boundary values bit for bit.  The
prefix sums restart every 2K cells, so their rounding stays at the size of one
window sum however fine the grid.  ``window_kernel`` gives the equivalent
convolution weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The grid of a config that sets none: [-20, 20] with 3200 cells.
DEFAULT_L = 20.0
DEFAULT_D = 3200
# The most float64 values numpy holds in one array: its size in bytes must
# be an index.
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def check_grid(L: float, D: int) -> None:
    """Reject a grid on [-L, L] with D cells that no profile can live on.

    Raises ``ValueError``, naming the rule, for L < 2, for D <= 0, for more
    than ``MAX_FLOATS`` nodes D + 1, and unless half a unit window, 1/(2h)
    with h = 2L/D, is a whole number of cells.
    """
    if L < 2:
        raise ValueError("half-width L must be at least 2")
    if D <= 0:
        raise ValueError("D must be positive")
    if D + 1 > MAX_FLOATS:
        raise ValueError(f"D + 1 = {D + 1} nodes exceed the {MAX_FLOATS} floats numpy holds "
                         "in one array")
    h = 2.0 * L / D
    k = 1.0 / (2.0 * h)
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValueError(
            f"1/(2h) = {k} must be a positive integer so the averaging "
            "window aligns with grid nodes"
        )


@dataclass(frozen=True)
class GridProfile:
    """Values of a profile at the nodes phi_k = -L + 2kL/D, k = 0..D."""

    L: float
    D: int
    values: np.ndarray
    left_value: float = -1.0
    right_value: float = 1.0

    def __post_init__(self):
        check_grid(self.L, self.D)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.D + 1,):
            raise ValueError(f"values must have length D+1 = {self.D + 1}")
        object.__setattr__(self, "values", v)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.D

    @property
    def K(self) -> int:
        """Number of cells in half an averaging window."""
        return round(1.0 / (2.0 * self.h))

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.D + 1)

    @property
    def pinned(self) -> tuple[slice, slice]:
        """The pinned window: the outer window width, 2K nodes, at the left
        and at the right end, where a profile is held at its boundary values."""
        k2 = 2 * self.K
        return slice(None, k2), slice(-k2, None)

    def with_values(self, values: np.ndarray) -> "GridProfile":
        return GridProfile(self.L, self.D, np.asarray(values, dtype=float),
                           self.left_value, self.right_value)

    def extended(self, pad: int) -> np.ndarray:
        """Values on ``pad`` extra nodes each side, using the constant extension."""
        return np.concatenate([
            np.full(pad, self.left_value),
            self.values,
            np.full(pad, self.right_value),
        ])

    def same_grid(self, other: "GridProfile") -> bool:
        return self.L == other.L and self.D == other.D

    def index_of(self, phi: float) -> int:
        """Nearest node index for a phase value."""
        return int(round((phi + self.L) / self.h))


def shock_profile(L: float, D: int) -> GridProfile:
    """The signum profile: -1 left of the origin, +1 right, 0 at the node phi=0."""
    prof = GridProfile(L, D, np.zeros(D + 1))
    return prof.with_values(np.sign(prof.nodes))


def window_kernel(K: int) -> np.ndarray:
    """Composite-trapezoid weights for the unit window, summing to 1.

    The reference weights that ``window_average`` applies without forming them.
    """
    h = 1.0 / (2 * K)
    kern = np.full(2 * K + 1, h)
    kern[0] *= 0.5
    kern[-1] *= 0.5
    return kern


def window_average(x: np.ndarray, K: int) -> np.ndarray:
    """Trapezoid averages of ``x`` over windows of 2K cells, at nodes K..n-1-K.

    Equal up to rounding to the valid part of the convolution of ``x`` with
    ``window_kernel(K)``, in O(n) instead of O(nK).  The two-sided constant
    extension is ``x[0]`` below the middle node ``c = n // 2`` and ``x[-1]``
    from it on; ``x`` needs at least 4K nodes.
    """
    n = x.size
    c = n // 2
    left, right = x[0], x[-1]
    B = 2 * K
    q = 0.5 / B
    # Cell means of x minus those of the extension, scaled by 1/(2K) and laid
    # out in blocks of 2K cells, zero-padded to a whole number of blocks.
    n_blocks = (n - 2) // B + 2
    cells = np.zeros(n_blocks * B)
    dev = cells[: n - 1]
    np.add(x[:-1], x[1:], out=dev)
    dev *= q
    dev[: c - 1] -= (left + left) * q
    dev[c - 1] -= (left + right) * q
    dev[c:] -= (right + right) * q
    # Window i = b*2K + r takes cells r.. of block b and cells ..r-1 of block
    # b+1, so per-block prefix sums and block totals give every window.
    blocks = cells.reshape(n_blocks, B)
    # Once the prefix sums have read the cells, the window sums go into the
    # cells' own buffer.
    prefix = np.cumsum(blocks, axis=1)
    total = prefix[:-1, -1:].copy()
    prefix -= blocks
    windows = np.subtract(prefix[1:], prefix[:-1], out=blocks[:-1])
    windows += total
    out = windows.reshape(-1)[: n - B]
    # Window average of the extension: windows i < c - 2K see only the left
    # value, windows i >= c only the right one, and in between the right
    # value covers 2t + 1 of the 4K half-cells of window i = c - 2K + t.
    lo = c - B
    out[:lo] += left
    out[c:] += right
    out[lo:c] += left + (right - left) * (np.arange(1, 2 * B, 2) / (2 * B))
    return out


def averaged_extended(profile: GridProfile, pad: int) -> np.ndarray:
    """Averaged values on the node range extended by ``pad`` nodes each side."""
    return window_average(profile.extended(pad + profile.K), profile.K)


def apply_averaging(profile: GridProfile) -> GridProfile:
    """Trapezoid average of the profile over the unit window at each node.

    Boundary extension values are averaging fixed points, so the result
    inherits the same extension.
    """
    return profile.with_values(averaged_extended(profile, 0))


def inner_product(w1: GridProfile, w2: GridProfile) -> float:
    """Trapezoid quadrature of the product over [-L, L].

    The tail contribution is exact (zero) whenever the product of the
    extensions vanishes; callers are responsible for integrability.
    """
    if not w1.same_grid(w2):
        raise ValueError("profiles live on different grids")
    return float(np.trapezoid(w1.values * w2.values, dx=w1.h))
