"""Rows of a trace as exact %.9g text, formatted by numpy from tables (see engine.write_trace).

This is a module of its own because Python compiles a module's whole syntax tree at once:
inside engine.py these lines raised the peak RSS of a benchmark montecarlo run compiled from
source by 0.15-0.46 MB, median 0.27 MB (six alternating 10 s pairs, 2-vCPU VM, Python 3.11).
"""

import numpy as np

# Tables of format_rows.  Each value becomes a token in a 32-byte frame of four little-endian
# words, NUL where the token has no character: byte 0 the sign, 1-5 the "0.000" prefix, digit
# i of 9 at 6 + 2i with the slot for a point after it, 24-28 the exponent ("e-05", "e+100")
# and 29 the separator.  Every byte is ASCII or NUL, so the words are non-negative int64.
_EXP_MIN, _EXP_MAX = -281, 281  # decimal exponents on the table path, 9-digit rollover included
_POW10 = np.array([float("1e%d" % k) for k in range(8 - _EXP_MAX, 9 - _EXP_MIN)])


def _tables():
    """The digit, trailing-zero, exponent and layout tables of format_rows.

    They are built with the float64 arithmetic and int64 shifts that format_rows runs
    itself, so that building them maps in little of numpy's code that a write would not.
    """
    d = np.arange(ord("0"), ord("9") + 1, dtype="<i8")
    # Four digits at bytes 0, 2, 4 and 6 of a word, indexed by their value.
    digits4 = (d[:, None, None, None] | d[:, None, None] << 16 | d[:, None] << 32 | d << 48).ravel()
    # Trailing zeros of four digits, read first to last: a 0 adds one, any other digit resets.
    zero = np.arange(10.0) == 0
    zeros4 = np.zeros(())
    for _ in range(4):
        zeros4 = np.where(zero, zeros4[..., None] + 1, 0.0)
    # Trailing zeros of the last 8 digits, indexed by the last 4, or by 10000 + the 4 before
    # them when the last 4 are 0.
    trailing = np.empty(20000, np.uint8)
    trailing[:10000] = zeros4.ravel()
    trailing[10000:] = zeros4.ravel() + 4
    x = np.arange(float(_EXP_MIN), _EXP_MAX + 1)
    ax = np.abs(x)
    wide, tens, hundreds = ax >= 100, np.floor(ax / 10), np.floor(ax / 100)
    suffix = np.zeros((x.size, 8))
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    suffix[:, 2] = np.where(wide, hundreds, tens) + ord("0")
    suffix[:, 3] = np.where(wide, tens - hundreds * 10, ax - tens * 10) + ord("0")
    suffix[:, 4] = np.where(wide, ax - tens * 10 + ord("0"), 0)
    suffix[(x >= -4) & (x <= 8)] = 0
    # Layout row 10 * (clip(X, -5, 9) + 5) + nd for exponent X and nd significant digits;
    # -5 and 9 stand for every exponent below and above the fixed-point range [-4, 8].
    clipped = np.where(x < -5, -5, np.where(x > 9, 9, x))
    row_of_exp = (10 * (clipped + 5) + 9).astype(np.intp)  # minus the trailing zeros
    X, nd, b = np.arange(-5.0, 10)[:, None, None], np.arange(10.0)[:, None], np.arange(32.0)
    fixed = (X >= -4) & (X <= 8)
    shown = np.where(fixed & (X + 1 > nd), X + 1, nd)
    point = np.where(fixed, np.where((X >= 0) & (nd > X + 1), X + 1, 0), np.where(nd > 1, 1, 0))
    prefix = np.where(fixed & (X < 0), 1 - X, 0)  # "0." then -X - 1 zeros
    # XOR turns the digits not shown, all trailing "0"s, into NUL and sets the point and prefix.
    half = np.floor(b / 2)
    digit = (b >= 6) & (b <= 22) & (half * 2 == b)
    layout = (np.where(digit & (half - 3 >= shown), ord("0"), 0)
              + np.where(~digit & (b > 6) & (b < 23) & (half - 2 == point), ord("."), 0)
              + np.where((b >= 1) & (b <= prefix), np.where(b == 2, ord("."), ord("0")), 0))
    return (digits4, trailing, suffix.astype(np.uint8).view("<i8").ravel(), row_of_exp,
            layout.astype(np.uint8).view("<i8").reshape(150, 4))


_DIGITS4, _TRAILING, _SUFFIX, _ROW_OF_EXP, _LAYOUT = _tables()


def format_rows(block) -> bytes:
    """A 2-D block, read as float64, as %.9g text: "," between values, "\\n" after each row."""
    v = np.asarray(block, dtype=float)
    r, c = v.shape
    if c == 0:
        return b"\n" * r
    v = v.ravel()
    a = np.abs(v)
    table = (a >= 1e-280) & (a <= 1e280)
    w = np.where(table, a, 1.0)
    e = np.floor(np.log10(w)).astype(np.intp)
    s = w * _POW10[_EXP_MAX - e]
    m = np.rint(s)
    zero = a == 0
    # Where log10 rounded across a power of ten, s is outside [1e8, 1e9) and % formats v.
    ok = table & (s >= 1e8) & (s < 1e9) & (np.abs(s - m) < 0.49999) | zero
    m[zero] = 0
    up = np.flatnonzero(m == 1e9)
    m[up] = 1e8
    e[up] += 1
    # m < 1e9 is an integer, so each quotient by 1e4 is exact or at least 1e-4 below the next
    # integer, and floor splits m into its first digit and two groups of four.
    hi = np.floor(m / 1e4)
    lo = m - hi * 1e4
    lead = np.floor(hi / 1e4)
    mid = hi - lead * 1e4
    trailing = _TRAILING[np.where(lo == 0, mid + 10000, lo).astype(np.intp)]
    e -= _EXP_MIN
    frame = np.empty((r, c, 4), "<i8")
    words = frame.reshape(-1, 4)
    words[:, 0] = (lead.astype(np.intp) + ord("0")) << 48 | np.where(np.signbit(v), ord("-"), 0)
    words[:, 1] = _DIGITS4[mid.astype(np.intp)]
    words[:, 2] = _DIGITS4[lo.astype(np.intp)]
    sep = np.full(c, ord(",") << 40)
    sep[-1] = ord("\n") << 40
    np.bitwise_or(_SUFFIX[e].reshape(r, c), sep, out=frame[:, :, 3])
    words ^= _LAYOUT.take(_ROW_OF_EXP[e] - trailing, axis=0)
    rest = np.flatnonzero(~ok)
    if rest.size:
        text = b"".join(("%.9g" % x).encode().ljust(24, b"\0") for x in v[rest].tolist())
        words[rest, :3] = np.frombuffer(text, "<i8").reshape(-1, 3)
        words[rest, 3] &= 255 << 40
    return frame.tobytes().translate(None, b"\0")
