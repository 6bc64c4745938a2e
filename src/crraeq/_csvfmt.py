"""`%.17g` for float64 arrays in numpy, byte for byte: the CSV writer's formatter.

A finite nonzero value v whose 17-significant-digit rounding has decimal
exponent X is spelled from its digit integer N = round(|v| 10^(16-X)),
rounded half to even on the exact binary value, as CPython's dtoa
rounds.  The product is Dekker's exact two-product of |v| against a
double-double table of 10^s, so its error before rounding is below
2^-46.  A value whose rounding that cannot decide is spelled by
CPython's `%` itself, as Grisu3 (Loitsch, PLDI 2010) falls back to an
exact algorithm: values outside [1e-280, 1e280], where the split could
overflow or underflow; zeros, infinities and NaN; values within 1e-6 of
a rounding tie; and values whose N is within 1 of 10^16, where X itself
is in doubt.  Every other value is decided exactly, so the bytes are
those of `"%.17g" % v`.

A block of values becomes bytes in three steps.  Digits: X from log10,
moved once if N falls outside [10^16, 10^17).  Cells: N's digits after
the first come from a table of the 10^4 four-digit groups, whose second
half spells each group with its trailing zeros NUL, for the groups that
end the number.  Each cell is laid out left-justified and NUL-padded in
a fixed-width slot: sign, the `0.` to `0.000` lead for -4 <= X < 0, the
digits with the dot after digit X (after the first in scientific form)
and the fraction's trailing zeros NUL, then the `e+XX` suffix for
X < -4 or X >= 17.  The cells are sorted by X, so each layout is
written with constant column slices, then put back in place.  Emit: the
block's bytes without their NULs.

The tables are built on first use, so importing this module costs
nothing.
"""

from __future__ import annotations

import functools

import numpy as np

_LOW, _HIGH = 1e-280, 1e280
_X_MIN, _X_MAX = -281, 281  # decimal exponents of [_LOW, _HIGH], after one move
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_TIE = 1e-6
_E16, _E17 = 10**16, 10**17
_BODY = 24  # the longest spelling: "-2.2250738585072014e-308"
_DOT = ord(".")
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte


@functools.cache
def _tables():
    """((hi, hi's two halves, lo) of 10^(16-x) by x - _X_MIN, the four-digit groups).

    hi + lo is 10^s to about 2^-106 relative: hi is 10^s correctly
    rounded (int to float and 1 / 10^-s both round correctly) and lo is
    the residual, correctly rounded from exact integers.  The groups are
    uint32 words of four ASCII digits, indexed by their value, then again
    with trailing zeros NUL at index value + 10^4.
    """
    rows = []
    for x in range(_X_MIN, _X_MAX + 1):
        s = 16 - x
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            hi = 1 / 10**-s
            m, d = hi.as_integer_ratio()
            lo = (d - m * 10**-s) / (d * 10**-s)
        rows.append((hi, lo))
    hi, lo = np.array(rows).T.copy()
    c = hi * _SPLIT
    hh = c - (c - hi)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    # a digit is kept if it or a later one is nonzero
    kept = np.maximum.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    groups = np.concatenate([chars, chars * kept]).view(np.uint32).ravel()
    return (hi, hh, hi - hh, lo), groups


def _digits(a: np.ndarray, index: np.ndarray, powers):
    """(round(a 10^(16-x)) as int64, whether that rounding is certain); index is x - _X_MIN."""
    hi, hh, hl, lo = (np.take(p, index) for p in powers)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    ph = a * hi
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl  # a hi = ph + pl exactly
    whole = np.floor(ph)
    r = (ph - whole) + pl + a * lo
    near = np.rint(r)
    sure = np.abs(r - near) < 0.5 - _TIE
    return whole.astype(np.int64) + near.astype(np.int64), sure


def _decide(values: np.ndarray, powers):
    """(N, class) of each value: its digit integer and X - _X_MIN, or class -1 for `%`."""
    a = np.abs(values)
    fast = (a >= _LOW) & (a <= _HIGH)  # also false for NaN
    a[~fast] = 1.0
    index = np.log10(a)
    np.floor(index, out=index)
    index -= _X_MIN
    index = index.astype(np.intp)
    n, sure = _digits(a, index, powers)
    moved = np.flatnonzero((n < _E16) | (n >= _E17))
    if moved.size:
        index[moved] += np.where(n[moved] < _E16, -1, 1)
        n[moved], sure[moved] = _digits(a[moved], index[moved], powers)
    fast &= sure & (n > _E16 + 1) & (n < _E17)
    key = index.astype(np.int16)
    key[~fast] = -1
    return n, key


def _put(dst: np.ndarray, src) -> None:
    """dst[...] = src, a row of bytes at a time: src is rows of dst's width, or one such row."""
    row = f"V{dst.shape[-1]}"
    dst.view(row)[...] = np.frombuffer(src, row) if isinstance(src, bytes) else src.view(row)


class _Cells:
    """Spells blocks of up to `size` values, in buffers reused from block to block.

    Arrays of this size allocated afresh for every block would cost a
    page fault per 4 kB each time.
    """

    def __init__(self, size: int):
        self.groups = np.empty((size, 4), np.int64)
        self.words = np.empty((size, 4), np.uint32)
        self.full = np.empty((size, 16), np.uint8)
        self.sorted = np.empty((size, _BODY), np.uint8)
        self.placed = np.empty((size, _BODY), np.uint8)

    def spell(self, values: np.ndarray) -> np.ndarray:
        """Each value's `%.17g` bytes, left-justified and NUL-padded: (len(values), _BODY)."""
        size = len(values)
        powers, table = _tables()
        n, key = _decide(values, powers)

        # the cells in order of their layout class, so each class is a run of rows
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        cells = self.sorted[:size]
        cells.fill(0)
        np.multiply(np.signbit(values).view(np.uint8)[order], ord("-"), out=cells[:, 0])

        # N = d0 10^16 + g0 10^12 + g1 10^8 + g2 10^4 + g3; a group is looked up
        # stripped of trailing zeros (+ 10^4) when every later group is zero
        top = n // 10**8
        bottom = n - top * 10**8
        lead = top // 10**8
        top -= lead * 10**8
        g = self.groups[:size]
        np.floor_divide(top, 10**4, out=g[:, 0])
        np.floor_divide(bottom, 10**4, out=g[:, 2])
        np.subtract(top, g[:, 0] * 10**4, out=g[:, 1])
        np.subtract(bottom, g[:, 2] * 10**4, out=g[:, 3])
        later = np.multiply(g[:, 3] == 0, 10000)
        g[:, 3] += 10000
        for k in (2, 1, 0):
            g[:, k] += later
            later *= g[:, k] == 10000
        first = lead.astype(np.uint8)
        first += ord("0")
        words = self.words[:size]
        np.take(table, g, out=words)
        rest = words.view(np.uint8)  # d1..d16, the number's trailing zeros NUL
        full = self.full[:size]  # d1..d16 with every zero
        np.bitwise_or(words.view(np.uint64), _ZEROS, out=full.view(np.uint64))

        starts = np.flatnonzero(key[1:] != key[:-1]) + 1
        for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), size]):
            x = int(key[lo]) + _X_MIN
            out = cells[lo:hi]
            if key[lo] < 0:
                text = b"".join(
                    (b"%.17g" % v).ljust(_BODY, b"\0") for v in values[order[lo:hi]].tolist()
                )
                out[:] = np.frombuffer(text, np.uint8).reshape(hi - lo, _BODY)
                continue
            if -4 <= x < 0:  # 0.000 d0 d1 ...
                _put(out[:, 1 : 2 - x], b"0.000"[: 1 - x])
                out = out[:, 1 - x :]
            out[:, 1] = first[lo:hi]
            if 0 < x <= 16:
                _put(out[:, 2 : x + 2], full[lo:hi, :x])
            if 0 <= x < 16:  # d0 ... dx . d(x+1) ...
                np.minimum(rest[lo:hi, x], _DOT, out=out[:, x + 2])
                _put(out[:, x + 3 : 19], rest[lo:hi, x:])
            elif -4 <= x < 0:
                _put(out[:, 2:18], rest[lo:hi])
            elif x != 16:  # d0 . d1 ... e+xx
                np.minimum(rest[lo:hi, 0], _DOT, out=out[:, 2])
                _put(out[:, 3:19], rest[lo:hi])
                suffix = b"e%+03d" % x
                _put(out[:, 19 : 19 + len(suffix)], suffix)

        placed = self.placed[:size]
        placed.view(f"V{_BODY}")[order] = cells.view(f"V{_BODY}")
        return placed


def write_rows(fh, path_id: int, matrix: np.ndarray, block_rows: int) -> None:
    """Write `path_id,v_1,...,v_n` for each row of matrix, each v as `"%.17g" % v` spells it.

    Formats block_rows rows at a time into one string, and writes it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    prefix = f"{path_id},".encode("ascii")
    rows = max(1, min(block_rows, n_rows))
    # each row: the prefix, then per value a slot of its spelling and its separator
    text = np.empty((rows, len(prefix) + n_cols * (_BODY + 1)), np.uint8)
    text[:, : len(prefix)] = np.frombuffer(prefix, np.uint8)
    slots = text[:, len(prefix) :].reshape(rows, n_cols, _BODY + 1)
    slots[:, :, -1] = ord(",")
    slots[:, -1, -1] = ord("\n")
    cells = _Cells(rows * n_cols)
    for lo in range(0, n_rows, rows):
        block = matrix[lo : lo + rows]
        k = len(block)
        _put(slots[:k, :, :-1], cells.spell(block.ravel()).reshape(k, n_cols, _BODY))
        fh.write(text[:k].tobytes().translate(None, b"\0").decode("ascii"))
