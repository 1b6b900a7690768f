"""Fixed-point CSV number text at array speed: the grid and KPI writers'
rendering and the KPI reader's parse. A text column is a 1-D array of
fixed-width void items, NUL-padded; a line is its columns' items side by
side, with every NUL dropped."""

from __future__ import annotations

import numpy as np

# text per block of a CSV writer or of the KPI reader; their arrays take a few times that
_TEXT_BLOCK_BYTES = 1 << 17
_U4, _WORD = np.dtype("<u4"), np.dtype("<u8")
_U = np.uint64      # shift counts and constants: numpy 1.x would not mix uint64 and int
_COMMA, _NEWLINE = np.frombuffer(b",", dtype=np.uint8), np.frombuffer(b"\n", dtype=np.uint8)


def _digit_table() -> np.ndarray:
    """Four ASCII digits per uint32, for i in 0..9999: '%04d' at [i], the
    same with its leading zeros as NUL at [i + 10**4], and with the units
    digit kept at [i + 2 * 10**4] (so 0 is NUL NUL NUL '0')."""
    i, place = np.arange(10_000)[:, None], np.array([1000, 100, 10, 1])
    digits = (i // place % 10 + ord("0")).astype(np.uint8)
    lead = i >= place
    return np.concatenate((digits, digits * lead, digits * (lead | (place == 1)))
                          ).view(_U4).ravel()


_DIGITS = _digit_table()
# a NUL inside a table text is held as 0xFF, a byte UTF-8 never uses, so
# that NUL can pad the items; _lines drops the pads and restores it
_RESTORE_NUL = bytes.maketrans(b"\xff", b"\0")


def _fixed_text(values: np.ndarray, decimals: int) -> np.ndarray:
    """'%.{decimals}f' % v for each v of a 1-D array, decimals >= 1, as a
    text column.

    The digits are those of q = rint(|v| * 10**decimals), four to a
    uint32 from _DIGITS, and the sign is a byte of its own, from signbit,
    so -0.0 prints as -0.00. That is the correctly rounded text unless
    the scaled magnitude lies within two ulps of a rounding tie, where
    the product's own rounding may decide: such values, those from 2**50
    up and the non-finite are formatted by Python's %, one at a time.
    """
    values = np.asarray(values, dtype=float)
    scale = 10.0 ** decimals
    with np.errstate(over="ignore", invalid="ignore"):     # inf, inf - inf
        scaled = np.abs(values) * scale
        q = np.rint(scaled)
        odd = ~(np.abs(scaled - q) + scaled * 2.0 ** -51 < 0.5)
    q[odd] = 0.0
    whole = np.floor(q / scale)             # exact, as q < 2**50
    frac = (q - whole * scale).astype(np.intp)
    whole = whole.astype(np.intp)
    int_groups = -(-len(str(whole.max(initial=0))) // 4)
    frac_groups, top = -(-decimals // 4), (decimals - 1) % 4 + 1
    fields = ["sign", *(f"i{g}" for g in range(int_groups)), "dot",
              *(f"f{g}" for g in range(frac_groups))]
    formats = ["u1", *[_U4] * int_groups, "u1", *[_U4] * frac_groups]
    exact = ["%.*f" % (decimals, v) for v in values[odd].tolist()]
    width = max([2 + 4 * (int_groups + frac_groups), *map(len, exact)])
    text = np.zeros(values.size, dtype={"names": fields, "formats": formats,
                                        "itemsize": width})
    text["sign"] = np.signbit(values) * np.uint8(ord("-"))
    for g, part in enumerate(_groups(whole, int_groups)):
        # a group with a digit above it is '%04d' (table 0); one without
        # has NUL for its leading zeros (table 1, all NUL for 0), but keeps
        # its units digit when it is the last group (table 2)
        table = 2 if g == int_groups - 1 else 1
        if g:
            table = table * (whole < 10 ** (4 * (int_groups - g)))
        text[f"i{g}"] = _DIGITS[part + table * 10_000]
    text["dot"] = ord(".")
    for g, part in enumerate(_groups(frac, frac_groups)):
        if g == 0 and top < 4:      # the first decimals, then NUL
            text["f0"] = _DIGITS[part * 10 ** (4 - top)] & np.uint32(256 ** top - 1)
        else:
            text[f"f{g}"] = _DIGITS[part]
    text = text.view(f"V{width}")
    if exact:
        text[odd] = _text_table(exact, width)
    return text


def _groups(x: np.ndarray, n: int) -> list:
    """x, each in [0, 10**(4 * n)), as n four-digit groups, the most
    significant first."""
    return [x // 10 ** (4 * g) % 10_000 for g in range(n - 1, 0, -1)] + [x % 10_000 if n > 1 else x]


def _text_table(texts, width: int = 1) -> np.ndarray:
    """The UTF-8 bytes of each text as a text column, at least ``width``
    wide; a NUL inside a text is held as 0xFF."""
    raw = [t.encode().replace(b"\0", b"\xff") for t in texts]
    width = max([width, *map(len, raw)])
    return np.array(raw, dtype=f"S{width}").view(f"V{width}")


def _lines(columns) -> bytes:
    """The text columns side by side, one line per item, without their
    NUL padding. A one-item column is repeated down every line."""
    columns = (*columns, _NEWLINE)
    lines = np.empty(max(map(len, columns)),
                     dtype=[(f"c{k}", c.dtype) for k, c in enumerate(columns)])
    for k, c in enumerate(columns):
        lines[f"c{k}"] = c
    return lines.tobytes().translate(_RESTORE_NUL, b"\0")


def _line_blocks(fh, tail: bytes):
    """tail, then the rest of a binary file, in blocks of about
    _TEXT_BLOCK_BYTES, each ending at a line end but for a last one
    without it."""
    while chunk := fh.read(_TEXT_BLOCK_BYTES):
        head, nl, tail = (tail + chunk).rpartition(b"\n")
        if nl:
            yield head + nl
    if tail:
        yield tail


_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=_WORD)
# _IN_FIELD[k][w]: the bytes of word k from the end of a field of w bytes
# that lie in the field, w = 0..16
_IN_FIELD = (~_LOW_BYTES[8 - np.minimum(np.arange(17), 8)],
             ~_LOW_BYTES[16 - np.clip(np.arange(17), 8, 16)])
_POW10 = 10 ** np.arange(17, dtype=_WORD)


def _words_at(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 of the 8 bytes from each position of buf."""
    return np.ndarray((buf.size - 7,), dtype=_WORD, buffer=buf, strides=(1,))


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number each word of eight digit values (0-9 per byte) spells,
    the first digit in the low byte (Lemire, "Number parsing at a gigabyte
    per second", SPE 51(8), 2021). Array arithmetic wraps silently; the
    same on numpy scalars would warn."""
    v = words * _U(10) + (words >> _U(8))
    low = _U(0x000000FF000000FF)
    return ((v & low) * _U(100 + (1_000_000 << 32))
            + ((v >> _U(16)) & low) * _U(1 + (10_000 << 32))) >> _U(32)


def _fixed_numbers(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   decimals: int) -> np.ndarray:
    """Values of the fields buf[lo:hi] read as '%.{decimals}f' prints
    them, -?D+.D{decimals}, from the last 16 bytes of each at most. No
    byte is checked: the caller compares the fields with the rendering
    of their values, which a field can equal only if it has that form
    and at most 15 digits, and then its value was read exactly.

    buf holds at least 16 bytes before the first field. A field is read
    as the one or two words that end where it ends, its dot as a 0 digit.
    With m its digits as an integer, the value is m / 10**decimals: one
    correctly rounded division of two exact doubles, as m < 10**15, so
    bitwise what float() returns (Clinger, PLDI 1990).
    """
    neg = buf[lo] == ord("-")
    width = np.clip(hi - lo - neg, 0, 16)
    zeros = _U(ord("0") * 0x0101010101010101)     # '0' in every byte
    words8 = _words_at(buf)
    v = 0
    # the last word, and the one before only if some field reaches into it
    for k in range(2 if width.max(initial=0) > 8 else 1):
        keep = _IN_FIELD[k][width]
        if k == 0:
            keep &= ~_U(0xFF << 8 * (7 - decimals))       # the dot
        # the bytes before the field and the dot become '0'
        w = words8[hi - 8 * (k + 1)] & keep | zeros & ~keep
        v = v + _eight_digits(w - zeros) * _POW10[8 * k]
    # the dot spelled a 0 digit: v = int * 10**(decimals + 1) + frac
    frac = v % _POW10[decimals]
    value = ((v - frac) // _U(10) + frac).astype(float) / 10.0 ** decimals
    return np.where(neg, -value, value)
