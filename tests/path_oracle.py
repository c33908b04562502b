"""Path arithmetic in Fractions, kept as a test oracle for the integer ticks.

These are the root operators, heights, values and stabilizer intervals as
they were computed before paths carried integer ticks: every function reads
only a path's `directions` and its Fraction `breaks`, and works in
`fractions.Fraction` throughout.  Results are built with the public
constructors (`make_path`, `RawPath`) from Fraction breakpoints.
"""

from fractions import Fraction

from demtensor.cartan import normalize_coords, vadd, vscale
from demtensor.lspath import LSPath, RawPath, make_path


def segments(path):
    b = path.breaks
    return [(d, b[k], b[k + 1]) for k, d in enumerate(path.directions)]


def value_at(path, t):
    """Exact value of the path at rational time t in [0, 1]."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("time %s outside [0, 1]" % t)
    acc = (Fraction(0),) * path.rs.rank
    for d, a, b in segments(path):
        if t <= b:
            return normalize_coords(vadd(acc, vscale(t - a, d)))
        acc = vadd(acc, vscale(b - a, d))
    return normalize_coords(acc)


def height_profile(path, i):
    """Heights at the breakpoints, accumulated segment by segment."""
    out = [Fraction(0)]
    acc = Fraction(0)
    for d, a, b in segments(path):
        acc += (b - a) * path.rs.pairing(d, i)
        out.append(acc)
    return out


def concatenate(first, second):
    """`first` on [0, 1/2] doubled, then `second`, from Fraction breakpoints."""
    half = Fraction(1, 2)
    dirs, brks = [], [Fraction(0)]
    for d, a, b in segments(first):
        dirs.append(vscale(2, d))
        brks.append(half * b)
    for d, a, b in segments(second):
        dirs.append(vscale(2, d))
        brks.append(half + half * b)
    return RawPath(first.rs, tuple(dirs), tuple(brks))


def _reflect_between(path, i, t0, t1):
    rs = path.rs
    dirs, brks = [], [Fraction(0)]

    def emit(d, b):
        dirs.append(d)
        brks.append(b)

    for d, a, b in segments(path):
        lo, hi = max(a, t0), min(b, t1)
        if lo >= hi:
            emit(d, b)
            continue
        if a < lo:
            emit(d, lo)
        emit(rs.simple_reflect(d, i), hi)
        if hi < b:
            emit(d, b)
    if isinstance(path, LSPath):
        return make_path(rs, path.shape, tuple(dirs), tuple(brks))
    return RawPath(rs, tuple(dirs), tuple(brks))


def path_f(path, i):
    heights = height_profile(path, i)
    m = min(heights)
    if m == heights[-1]:
        return None
    breaks = path.breaks
    k0 = max(k for k, h in enumerate(heights) if h == m)
    t0 = breaks[k0]
    for j in range(k0 + 1, len(heights)):
        if heights[j] >= m + 1:
            slope = path.rs.pairing(path.directions[j - 1], i)
            t1 = breaks[j - 1] + Fraction(m + 1 - heights[j - 1], 1) / slope
            return _reflect_between(path, i, t0, t1)
    raise AssertionError("the %d-height never reaches %s after %s" % (i, m + 1, t0))


def path_e(path, i):
    heights = height_profile(path, i)
    m = min(heights)
    if m == 0:
        return None
    breaks = path.breaks
    k1 = min(k for k, h in enumerate(heights) if h == m)
    t1 = breaks[k1]
    for j in range(k1, 0, -1):
        if heights[j - 1] >= m + 1:
            slope = path.rs.pairing(path.directions[j - 1], i)
            t0 = breaks[j - 1] + Fraction(m + 1 - heights[j - 1], 1) / slope
            return _reflect_between(path, i, t0, t1)
    raise AssertionError("the %d-height never reaches %s before %s" % (i, m + 1, t1))


def stabilizer_intervals(group, pi, lam):
    """Stabilizer index sets of lam + pi(t), read at the candidate times and
    the midpoints between them, with equal neighbours merged."""
    rs = group.rs
    times = set(pi.breaks)
    for i in range(1, rs.rank + 1):
        heights = height_profile(pi, i)
        for k in range(len(pi.directions)):
            a, b = pi.breaks[k], pi.breaks[k + 1]
            ha = lam[i - 1] + heights[k]
            hb = lam[i - 1] + heights[k + 1]
            if ha == hb:
                continue
            tstar = a + (b - a) * Fraction(0 - ha, hb - ha)
            if a < tstar < b:
                times.add(tstar)
    times = sorted(times)

    def indices_at(t):
        value = value_at(pi, t)
        return frozenset(
            i for i in range(1, rs.rank + 1) if lam[i - 1] + value[i - 1] == 0
        )

    fine = []
    for k, t in enumerate(times):
        fine.append(indices_at(t))
        if k + 1 < len(times):
            fine.append(indices_at((t + times[k + 1]) / 2))
    merged = []
    for J in fine:
        if not merged or merged[-1] != J:
            merged.append(J)
    return tuple(merged)
