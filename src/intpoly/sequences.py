"""Classification of finite sequence windows by difference valuations.

A window is a finite run of pairwise-distinct p-integral rationals.  The
three classes (convergent / divergent / stationary in the pseudo sense) are
defined by how v(x_n - x_m) behaves over all triples n > m > l; the
implementation uses an equivalent consecutive-difference reduction which the
test suite checks against the triple definition by brute force.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .arith import INF, DomainError, InputParseError, _vp, require_prime
from .poly import Polynomial

# the most points a parsed window may hold: classifying a window that is
# neither pseudo-convergent nor pseudo-divergent compares every pair of its
# points, which took 0.9-2.0 s at 1,000 points, 2.6-5.3 s at 1,600 and
# 3.7-7.6 s at 2,000 in process (0, 1, 2, ... at p = 2 and 3; Python 3.11,
# shared 2-core Xeon, the spread is between runs)
MAX_WINDOW_POINTS = 1_600


def require_window_length(text: str) -> None:
    """Refuse the comma-separated points of a window when there are more than
    MAX_WINDOW_POINTS, before any is parsed."""
    count = text.count(",") + 1
    if count > MAX_WINDOW_POINTS:
        raise InputParseError(
            f"a window of {count} points exceeds the cap of {MAX_WINDOW_POINTS} points"
        )


class WindowClass(Enum):
    PSEUDO_CONVERGENT = "pseudo_convergent"
    PSEUDO_DIVERGENT = "pseudo_divergent"
    PSEUDO_STATIONARY = "pseudo_stationary"
    NONE = "none"


class ImageDichotomy(Enum):
    INCREASING = "increasing"
    EVENTUALLY_CONSTANT = "eventually_constant"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SeqWindow:
    """At least three pairwise-distinct p-integral rationals, in order."""

    p: int
    points: tuple

    def __post_init__(self):
        require_prime(self.p)
        pts = tuple(Fraction(x) for x in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 3:
            raise DomainError("window needs at least 3 points")
        if len(set(pts)) != len(pts):
            raise DomainError("window points must be pairwise distinct")
        for x in pts:
            if _vp(x, self.p) < 0:
                raise DomainError(f"window point {x} is not p-integral at p={self.p}")

    def __len__(self):
        return len(self.points)

    def gap_valuations(self) -> list:
        """v(x_{i+1} - x_i) for consecutive points (all finite by distinctness)."""
        pts = self.points
        return [_vp(pts[i + 1] - pts[i], self.p) for i in range(len(pts) - 1)]


def _strictly_increasing(vals) -> bool:
    return all(a < b for a, b in zip(vals, vals[1:]))


def _strictly_decreasing(vals) -> bool:
    return all(a > b for a, b in zip(vals, vals[1:]))


def classify_window(w: SeqWindow) -> WindowClass:
    """Classify by the consecutive-difference reduction.

    Strictly increasing consecutive gaps force v(x_n - x_m) = v(x_{m+1} - x_m)
    for all n > m (the later summands have strictly larger valuation), which
    yields the triple condition; similarly for strictly decreasing gaps.  For
    the stationary class consecutive equality is NOT enough: all pairwise
    valuations are compared, except that the difference of the first and last
    points never appears in a triple (it would need an index below the first
    or above the last) and so is genuinely unconstrained.
    """
    gaps = w.gap_valuations()
    if _strictly_increasing(gaps):
        return WindowClass.PSEUDO_CONVERGENT
    if _strictly_decreasing(gaps):
        return WindowClass.PSEUDO_DIVERGENT
    pts, last = w.points, len(w) - 1
    constrained = {
        _vp(pts[j] - pts[i], w.p)
        for i, j in combinations(range(len(pts)), 2)
        if (i, j) != (0, last)
    }
    if len(constrained) == 1:
        return WindowClass.PSEUDO_STATIONARY
    return WindowClass.NONE


def is_pseudo_limit(x, w: SeqWindow) -> bool:
    """Whether v(x - x_n) is strictly increasing along the window.

    If x coincides with a window point the valuation INF breaks the notion of
    a strictly increasing finite run, so the answer is False rather than an
    error.
    """
    if classify_window(w) is not WindowClass.PSEUDO_CONVERGENT:
        raise DomainError("pseudo-limit test needs a pseudo-convergent window")
    x = Fraction(x)
    if x in w.points:
        return False
    vals = [_vp(x - a, w.p) for a in w.points]
    return _strictly_increasing(vals)


def _observed_dichotomy(vals) -> ImageDichotomy:
    """Tail behavior of a valuation list: strictly increasing throughout, or
    constant from some index with at least two finite entries of evidence,
    which is to say that the last two entries are equal and finite."""
    if _strictly_increasing(vals):
        return ImageDichotomy.INCREASING
    if vals[-1] == vals[-2] and vals[-1] is not INF:
        return ImageDichotomy.EVENTUALLY_CONSTANT
    return ImageDichotomy.UNDETERMINED


def image_window_classify(f: Polynomial, w: SeqWindow):
    """Push the window through f and find where the image turns pseudo-convergent.

    Returns (suffix_start, window_class, dichotomy): the smallest index from
    which at least three image points are pairwise distinct and classify as
    pseudo-convergent (len(w) if none), and the observed behavior of the
    image valuations v(f(x_n)) on that suffix.

    A suffix qualifies exactly when its consecutive gaps increase strictly
    and the last one is finite: the gaps before it are then finite too, and
    each v(y_j - y_i) equals the gap at i.  So the gaps are taken once and
    walked back from the end.
    """
    if f.is_zero:
        raise DomainError("image classification needs a nonzero polynomial")
    images = [f(x) for x in w.points]
    n = len(images)
    gaps = [_vp(b - a, w.p) for a, b in zip(images, images[1:])]
    start = n - 2
    if gaps[-1] is not INF:
        while start and gaps[start - 1] < gaps[start]:
            start -= 1
    if start > n - 3:
        return n, WindowClass.NONE, ImageDichotomy.UNDETERMINED
    vals = [_vp(y, w.p) for y in images[start:]]
    return start, WindowClass.PSEUDO_CONVERGENT, _observed_dichotomy(vals)
