"""`%.17g` for float64 arrays in numpy, byte for byte: the CSV writer's formatter.

A finite nonzero value v whose 17-significant-digit rounding has decimal
exponent X is spelled from its digit integer N = round(|v| 10^(16-X)),
rounded half to even on the exact binary value, as CPython's dtoa
rounds.  The product is Dekker's exact two-product of |v| against a
double-double table of 10^s, so its error before rounding is below
2^-46.  A value whose rounding that cannot decide is spelled by
CPython's `%` itself, as Grisu3 (Loitsch, PLDI 2010) falls back to an
exact algorithm: values outside [2^-930, 2^930), where the split could
overflow or underflow; zeros, infinities and NaN; values within 1e-6 of
a rounding tie; and values whose N is within 1 of 10^16, where X itself
is in doubt.  Every other value is decided exactly, so the bytes are
those of `"%.17g" % v`.

A block of values becomes bytes in three steps.  Digits: X is the
smallest decimal exponent of v's binade, plus one where v reaches the
next power of ten, moved once if N falls outside [10^16, 10^17); one
gather from a table of rows (hi, hi's two halves, lo) gives the power.
Cells: N is split once in int64 and then in int32 into its first digit
and four four-digit groups, which a table of the 10^4 groups spells,
its second half with the trailing zeros NUL for the groups that end the
number.  Each cell is laid out left-justified and NUL-padded in 24
bytes: sign, the `0.` to `0.000` lead for -4 <= X < 0, the digits with
the dot after digit X (after the first in scientific form) and the
fraction's trailing zeros NUL, then the `e+XX` suffix for X < -4 or
X >= 17.  The cells are sorted by X, so each layout is written with
constant column slices.  Emit: the sorted cells are scattered straight
into their slots of the block's rows, and the rows' bytes are written
without their NULs.

The tables are built on first use, so importing this module costs
nothing.
"""

from __future__ import annotations

import functools

import numpy as np

_X_MIN, _X_MAX = -281, 281  # decimal exponents of [2^-930, 2^930), after one move
_BINADES = range(-930, 930)  # binary exponents whose values numpy decides
_CLAMP = 2.0**990  # larger values, inf and NaN become this, in an undecided binade
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_TIE = 1e-6
_E16, _E17 = 10**16, 10**17
_BODY = 24  # the longest spelling: "-2.2250738585072014e-308"
_SLOT = _BODY + 1  # a cell and its separator; a row's `path_id,` takes one slot too
_DOT = ord(".")
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte
_ZERO_ROW = _X_MAX - _X_MIN + 1  # the power row of undecided binades: all zeros


@functools.cache
def _tables():
    """(powers, binade rows, binade tops, groups).

    powers[x - _X_MIN] is (hi, hi's two halves, lo) of 10^(16-x), then a
    zero row.  hi + lo is 10^s to about 2^-106 relative: hi is 10^s
    correctly rounded (int to float and 1 / 10^-s both round correctly)
    and lo is the residual, correctly rounded from exact integers.  A
    biased binary exponent indexes the power row of its binade's smallest
    X, and the correctly rounded 10^(X+1) from which X is one more; an
    undecided binade gets the zero row and an infinite top.  The groups
    are words of four ASCII digits, indexed by their value, then again
    with trailing zeros NUL at index value + 10^4: as uint64 with the
    digits in the low half, and with them in the high half.
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
    hi, lo = np.array(rows).T
    c = hi * _SPLIT
    hh = c - (c - hi)
    powers = np.vstack([np.stack([hi, hh, hi - hh, lo], axis=1), np.zeros(4)])

    binade_rows = np.full(2048, _ZERO_ROW, np.intp)
    binade_tops = np.full(2048, np.inf)
    for e in _BINADES:
        # 2^e is no power of ten for e != 0, so X is its digit count less one
        x = len(str(2**e)) - 1 if e >= 0 else -len(str(2**-e))
        binade_rows[e + 1023] = x - _X_MIN
        binade_tops[e + 1023] = 10 ** (x + 1) if x >= -1 else 1 / 10 ** -(x + 1)

    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    # a digit is kept if it or a later one is nonzero
    kept = np.maximum.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    groups = np.concatenate([chars, chars * kept]).view(np.uint32).ravel().astype(np.uint64)
    return powers, binade_rows, binade_tops, (groups, groups << 32)


def _digits(a: np.ndarray, row: np.ndarray, powers: np.ndarray):
    """(round(a 10^(16-x)) as int64, whether that rounding is certain); row is x - _X_MIN.

    N = ph + round(pl + a lo), as ph = fl(a hi) is an integer from 2^53
    (below 10^16) up; where ph is below 2^53, so is that N, and X moves.
    """
    hi, hh, hl, lo = np.take(powers, row, axis=0).T
    ah = a * _SPLIT
    t = ah - a
    ah -= t
    al = a - ah
    ph = a * hi
    # pl = ((ah hh - ph) + ah hl + al hh) + al hl, so that a hi = ph + pl exactly;
    # then r = pl + a lo
    r = np.multiply(ah, hh, out=t)
    r -= ph
    u = ah * hl
    r += u
    r += np.multiply(al, hh, out=u)
    r += np.multiply(al, hl, out=u)
    r += np.multiply(a, lo, out=u)
    near = np.rint(r, out=u)
    r -= near
    sure = np.abs(r, out=r) < 0.5 - _TIE
    return np.add(ph, near, dtype=np.int64, casting="unsafe"), sure


def _decide(values: np.ndarray):
    """(N, X - _X_MIN as int16) of each value, or -1 for those `%` spells."""
    powers, binade_rows, binade_tops, _ = _tables()
    a = np.fmin(np.abs(values), _CLAMP)  # fmin drops NaN
    binade = a.view(np.int64) >> 52
    row = np.take(binade_rows, binade)
    row += a >= np.take(binade_tops, binade)
    n, sure = _digits(a, row, powers)
    # N outside [10^16 + 2, 10^17): X moves once, or `%` spells the value
    odd = np.flatnonzero((n - (_E16 + 2)).view(np.uint64) >= _E17 - _E16 - 2)
    moved = odd[(row[odd] != _ZERO_ROW) & ((n[odd] < _E16) | (n[odd] >= _E17))]
    if moved.size:
        row[moved] += np.where(n[moved] < _E16, -1, 1)
        n[moved], sure[moved] = _digits(a[moved], row[moved], powers)
    key = row.astype(np.int16)
    key[~sure] = -1
    key[odd[(n[odd] <= _E16 + 1) | (n[odd] >= _E17)]] = -1
    return n, key


def _put(dst: np.ndarray, src) -> None:
    """dst[...] = src, a row of bytes at a time: src is rows of dst's width, or one such row."""
    row = f"V{dst.shape[-1]}"
    dst.view(row)[...] = np.frombuffer(src, row) if isinstance(src, bytes) else src.view(row)


class RowWriter:
    """Writes `path_id,v_1,...,v_n` rows to a binary file, each v as `"%.17g" % v` spells it.

    Spells block_rows rows at a time into one buffer of 25-byte slots, a
    row being its `path_id,` slot and a slot per value, and writes the
    buffer without its NULs.  The buffers are made once per writer and
    reused for every block and every call.
    """

    def __init__(self, fh, n_cols: int, block_rows: int):
        self.fh = fh
        self.n_cols = n_cols
        self.rows = rows = max(1, block_rows)
        size = rows * n_cols
        self.text = np.zeros(rows * (n_cols + 1) * _SLOT, np.uint8)
        self.slots = self.text.reshape(rows, n_cols + 1, _SLOT)
        self.slots[:, 1:, -1] = ord(",")
        self.slots[:, -1, -1] = ord("\n")
        # value i's slot: row i // n_cols, after the path_id slot
        self.cells = self.text.reshape(-1, _SLOT)[:, :_BODY].view(f"V{_BODY}")[:, 0]
        self.dest = np.arange(size) + np.arange(size) // n_cols + 1
        self.groups = np.empty((4, size), np.int32)
        self.words = np.empty((size, 2), np.uint64)
        self.full = np.empty((size, 16), np.uint8)
        self.sorted = np.empty((size, _BODY), np.uint8)

    def write(self, path_id: int, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        prefix = b"%d," % path_id
        _put(self.slots[:, 0], prefix.ljust(_SLOT, b"\0"))
        row_bytes = (self.n_cols + 1) * _SLOT
        for lo in range(0, len(matrix), self.rows):
            block = matrix[lo : lo + self.rows]
            self._spell(block.ravel())
            self.fh.write(self.text[: len(block) * row_bytes].tobytes().translate(None, b"\0"))

    def _spell(self, values: np.ndarray) -> None:
        """Put each value's `%.17g` bytes, left-justified and NUL-padded, in its slot."""
        size = len(values)
        low, high = _tables()[3]
        n, key = _decide(values)

        # the cells in order of X, so each layout is a run of rows
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        cells = self.sorted[:size]
        cells.fill(0)
        np.multiply(np.signbit(values).view(np.uint8)[order], ord("-"), out=cells[:, 0])

        # N = d0 10^16 + g0 10^12 + g1 10^8 + g2 10^4 + g3; a group is looked up
        # stripped of its trailing zeros (+ 10^4) when every later group is zero
        g = self.groups[:, :size]
        top = np.floor_divide(n, 10**8, out=g[1], casting="unsafe")
        np.subtract(n, np.multiply(top, 10**8, dtype=np.int64), out=g[3], casting="unsafe")
        tail = g[3] == 0  # d9..d16 all zero
        lead = top // 10**8
        top -= lead * 10**8
        np.floor_divide(top, 10**4, out=g[0])
        g[1] -= g[0] * 10**4
        np.floor_divide(g[3], 10**4, out=g[2])
        g[3] -= g[2] * 10**4
        np.add(g[2], 10000, out=g[2], where=g[3] == 0)
        np.add(g[1], 10000, out=g[1], where=tail)
        np.add(g[0], 10000, out=g[0], where=g[1] == 10000)
        first = np.add(lead, ord("0"), dtype=np.uint8, casting="unsafe")
        words = self.words[:size]  # d1..d8 and d9..d16, the number's trailing zeros NUL
        np.bitwise_or(np.take(low, g[0]), np.take(high, g[1]), out=words[:, 0])
        np.bitwise_or(np.take(low, g[2]), np.take(high[10000:], g[3]), out=words[:, 1])
        rest = words.view(np.uint8)
        full = self.full[:size]  # d1..d16 with every zero
        np.bitwise_or(words, _ZEROS, out=full.view(np.uint64))

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

        self.cells[np.take(self.dest, order)] = cells.view(f"V{_BODY}")[:, 0]
