"""Classification of finite sequence windows by difference valuations.

A window is a finite run of pairwise-distinct p-integral rationals.  The
three classes (convergent / divergent / stationary in the pseudo sense) are
defined by how v(x_n - x_m) behaves over all triples n > m > l; the
implementation decides each from the consecutive gaps in one pass, which the
test suite checks against the triple definition by brute force.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .arith import INF, DomainError, InputParseError, Record, _vp, require_prime
from .poly import Polynomial

# the most points a parsed window may hold.  Classifying reads the
# consecutive gaps once: parsing and classifying 1,600 points took 0.010 s
# for 0, 1, 2, ... at p = 2 and at p = 1,000,003, and 0.065 s for i*2^200,
# whose gaps take 200 divisions by p each; 10,000 points took 0.07 and
# 0.52 s, and 25,000 (about one 128 KiB argument) 0.2 and 1.3 s (Python
# 3.11, shared 2-core Xeon).  The cap is still the one an earlier pairwise
# check needed; raising it changes the refusals that pin it
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


class SeqWindow(Record):
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
            if x.denominator % self.p == 0:
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
    """Classify by the consecutive gaps, in one pass.

    Strictly increasing consecutive gaps force v(x_n - x_m) = v(x_{m+1} - x_m)
    for all n > m (the later summands have strictly larger valuation), which
    yields the triple condition; similarly for strictly decreasing gaps.  A
    stationary window needs every gap equal to one gamma, and then every
    difference has valuation at least gamma, exactly gamma when the two
    points differ mod p^(gamma+1).  Every pair but (first, last) appears in
    a triple (that pair would need an index below the first or above the
    last), so the window is stationary exactly when the points but the last,
    and the points but the first, are each distinct mod p^(gamma+1).
    """
    return _classify_gaps(w, w.gap_valuations())


def _classify_gaps(w: SeqWindow, gaps: list) -> WindowClass:
    """`classify_window(w)` from `gaps`, the list `w.gap_valuations()`."""
    if _strictly_increasing(gaps):
        return WindowClass.PSEUDO_CONVERGENT
    if _strictly_decreasing(gaps):
        return WindowClass.PSEUDO_DIVERGENT
    if len(set(gaps)) == 1:
        mod = w.p ** (gaps[0] + 1)
        res = [x.numerator * pow(x.denominator, -1, mod) % mod for x in w.points]
        if len(set(res[:-1])) == len(res) - 1 == len(set(res[1:])):
            return WindowClass.PSEUDO_STATIONARY
    return WindowClass.NONE


def is_pseudo_limit(x, w: SeqWindow) -> bool:
    """Whether v(x - x_n) is strictly increasing along the window.

    If x coincides with a window point the valuation INF breaks the notion of
    a strictly increasing finite run, so the answer is False rather than an
    error.
    """
    if not _strictly_increasing(w.gap_valuations()):
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
