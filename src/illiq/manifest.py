"""The files a run leaves and their record: every numeric CSV, in one dialect
(a header row, comma delimiters, no comment prefix, every number in
``CSV_FLOAT`` but the swept ``value`` column of a sweep table, which is
written with ``str``), the SHA-256 digests of configs and outputs, and the
atomic write of a run's ``manifest.json``, a plain dict that
``cli._Run.finish`` builds.  Only ``write_csv`` calls ``_g17``, the numpy
kernel that gives the bytes of ``CSV_FLOAT % x`` for whole blocks: each
number a NUL-padded cell of four uint64 words (the delimiter before it, sign,
prefix and leading digit; the 16 digits after it, the point shifted in; the
exponent), written in place into a block's line cells, with every temporary
taken from scratch that ``write_csv`` allocates once per file."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

import numpy as np


def digest(obj) -> str:
    """Hex SHA-256 of the canonical JSON serialization (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read a megabyte at a time."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    return sha.hexdigest()


def write_manifest(manifest: dict, path) -> None:
    """Write atomically (temp file + rename) next to the outputs it describes."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


CSV_FLOAT = "%.17g"  # every number a CSV holds, in full double precision
CSV_BLOCK_NUMBERS = 8192  # at most this many field numbers are formatted per block


def write_csv(path, axes, fields: dict) -> None:
    """Fields over one or two axes in long form, row-major: one line per
    point of the axes holding its axis values, then one column per field.
    ``axes`` holds one or two (name, values) pairs; each field has the shape
    of the axes.  Each axis value is formatted once.  The lines are built a
    block of whole first-axis rows at a time (at most ``CSV_BLOCK_NUMBERS``
    field numbers, at least one row and at most the file) in line cells and
    kernel scratch allocated once per file, so memory stays flat; a block
    allocates only its text, the cells with their NULs stripped.  A field
    bit for bit equal to an earlier one is formatted once and its cells
    copied.  Each cell leads with the delimiter before it (a newline for a
    line's first), so the header goes out without its newline and the file
    ends with one."""
    texts = [_g17(np.asarray(axis, dtype=float), delimiter=lead)
             for (_, axis), lead in zip(axes, (b"\n", b","))]
    n_rows, n_cols = len(texts[0]), len(texts[1]) if len(texts) == 2 else 1
    values = [np.asarray(field, dtype=float).reshape(n_rows, n_cols) for field in fields.values()]
    n_axes, width = len(texts), len(texts) + len(values)
    # whole first-axis rows per block
    step = max(1, min(n_rows, CSV_BLOCK_NUMBERS // (n_cols * max(1, len(values)))))
    cells = np.empty((step, n_cols, width, 4), "<u8")  # a line is width cells of 4 words
    chars = cells.reshape(-1).view(np.uint8)
    keep = np.empty(chars.size, bool)
    source = _first_copies(values, keep[:step * n_cols].reshape(step, n_cols))
    runs = _runs([j for j, i in enumerate(source) if i == j])
    x = np.empty(step * n_cols * max((b - a for a, b in runs), default=0))
    scratch = _g17_scratch(x.size)
    copy = np.empty((step, n_cols, 4), "<u8")  # a duplicate's cells pass through here
    if n_axes == 2:
        cells[:, :, 1] = texts[1]  # the same in every block
    with open(path, "wb") as fh:
        fh.write(",".join([*(name for name, _ in axes), *fields]).encode())
        for r in range(0, n_rows, step):
            rows = min(step, n_rows - r)
            block = cells[:rows]
            block[:, :, 0] = texts[0][r:r + rows, None]
            for a, b in runs:  # field-major, so each field's words are one strided row
                run = x[:(b - a) * rows * n_cols].reshape(b - a, rows, n_cols)
                for c in range(a, b):
                    run[c - a] = values[c][r:r + rows]
                _g17(run, np.moveaxis(block[:, :, n_axes + a:n_axes + b], 2, 0), scratch, b",")
            for j, i in enumerate(source):
                if i != j:
                    np.copyto(copy[:rows], block[:, :, n_axes + i])
                    np.copyto(block[:, :, n_axes + j], copy[:rows])
            text = chars[:block.nbytes]
            np.not_equal(text, 0, out=keep[:text.size])
            fh.write(text[keep[:text.size]])
        fh.write(b"\n")


def _first_copies(values: list, equal: np.ndarray) -> list:
    """For each field, the index of the first field bit for bit equal to it
    (its own index when none is), compared a block of rows at a time in
    ``equal``, a boolean (rows, cols) buffer."""

    def same(u, v) -> bool:
        for r in range(0, len(u), len(equal)):
            a, b = u[r:r + len(equal)].view(np.uint64), v[r:r + len(equal)].view(np.uint64)
            if not np.equal(a, b, out=equal[:len(a)]).all():
                return False
        return True

    source = list(range(len(values)))
    for j in range(len(values)):
        source[j] = next((i for i in range(j) if source[i] == i and same(values[i], values[j])), j)
    return source


def _runs(columns: list) -> list:
    """The (start, stop) of each run of consecutive integers in ``columns``."""
    runs = []
    for c in columns:
        if runs and runs[-1][1] == c:
            runs[-1] = (runs[-1][0], c + 1)
        else:
            runs.append((c, c + 1))
    return runs


def write_sweep_csv(path, param: str, values, metrics: dict) -> None:
    """A study's ``param,value,metric,metric_value`` table: a metric with one
    entry per swept value is written against each value, any other against none.
    A metric is written in ``CSV_FLOAT``, a swept value with ``str`` (``0.003``)."""
    lines = ["param,value,metric,metric_value"]
    for name, arr in metrics.items():
        vals = np.atleast_1d(arr)
        if vals.size == len(values):
            for v, m in zip(values, vals):
                lines.append(f"{param},{v},{name},{CSV_FLOAT % m}")
        else:
            for m in vals:
                lines.append(f"{param},,{name},{CSV_FLOAT % m}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ``_g17`` writes the bytes of ``CSV_FLOAT % x`` for a whole array.  A finite
# x != 0 with E = floor(log10|x|) has the 17 significant digits
# D = round(y), y = |x| 10^(16 - E) in [10^16, 10^17); D = 10^17 carries into
# the next power of ten.  y, as |x| times the double-double 10^(16 - E) =
# hi + lo with Dekker's exact two-product for |x| hi (Numer. Math. 18, 1971),
# is within about 1e-14 of its exact value, so D is exact unless y lies within
# ``_G17_TIE`` of a rounding tie.  Those entries, non-finite ones and those
# with |E| > ``_G17_EXP`` are formatted with ``%`` one at a time.  A y just
# under 10^16 (by at most 0.01) keeps E: at E - 1 it would carry back to
# D = 10^16.
#
# Each number is a cell of four little-endian uint64 words, 32 bytes whose
# NULs ``write_csv`` strips.  Word 0 holds, right-aligned so that its last
# byte is the leading digit: the delimiter before the number, if any, its
# sign and the "0.000" prefix of X < 0, from one table per delimiter by
# class (X = -4..16 or exponent notation), by whether a fraction is shown and
# by sign.  Words 1-2 hold the 16 digits after the leading one, trailing
# zeros masked to NUL; where a fraction is shown the bytes from the point on
# move up one byte, through per-class masks, and the point fills that byte:
# byte X for 1 <= X <= 15, byte 0 for X = 0 and exponent notation.  Word 3
# holds the byte that move pushed out of word 2 (byte 0) and the exponent
# (bytes 1-5).  A number in fixed notation is thus one run of text, which
# keeps the strip cheap.
_G17_EXP = 280  # the largest |E| the power table serves
_G17_TIE = 1e-6  # in units of the 17th digit
_G17_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_G17_ROWS = 12  # eight-byte scratch rows per number


@functools.cache
def _g17_tables() -> dict:
    """The tables ``_g17`` reads, built on first use.  By E in
    [-_G17_EXP - 1, _G17_EXP + 1]: 10^(16 - E) as hi + lo, hi also split into
    Dekker's head + tail; the digits before the point, twice the class, and
    word 3's exponent bytes ("e+05", "e-308"; none in fixed notation).  By
    0..9999: the ASCII of the four digits, in the low and in the high half of
    a word, and the count of trailing zeros.  By the digits shown after the
    leading one: the bytes of words 1 and 2 kept.  By 2 class + (a fraction is
    shown): the bytes of words 1 and 2 that move up one byte, and the point
    in each; by twice that plus the sign, and by the delimiter before the
    number (none, a comma or a newline), word 0 with the leading digit '0'."""
    exps = range(-_G17_EXP - 1, _G17_EXP + 2)
    hi, lo = [], []
    for e in exps:
        # int -> float and int / int are correctly rounded in Python
        if e <= 16:
            power = 10 ** (16 - e)
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            den = 10 ** (e - 16)
            hi.append(1 / den)
            num, hi_den = hi[-1].as_integer_ratio()
            lo.append((hi_den - num * den) / (hi_den * den))
    hi = np.array(hi)
    split = _G17_SPLIT * hi
    head = split - (split - hi)

    def word(text: bytes) -> int:
        return int.from_bytes(text, "little")

    quads = np.arange(10_000)
    ascii4 = np.stack([quads // 1000, quads // 100 % 10, quads // 10 % 10, quads % 10], axis=1)
    ascii4 = (ascii4 + ord("0")).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    zeros4 = sum((quads % 10**k == 0).astype(np.int64) for k in range(1, 5))
    fixed = [-4 <= e <= 16 for e in exps]
    point = [max(e + 1, 0) if f else 1 for e, f in zip(exps, fixed)]
    twice_class = [2 * (e + 4 if f else 21) for e, f in zip(exps, fixed)]
    exponent = [0 if f else word(b"\0e%+03d" % e) for e, f in zip(exps, fixed)]
    # the bytes of words 1 and 2 that hold the first n of the 16 digits, and all of a word
    keep1 = [(1 << 8 * min(n, 8)) - 1 for n in range(17)]
    keep2, full = [0] * 8 + keep1[:9], keep1[8]

    word0 = {delimiter: [] for delimiter in (b"", b",", b"\n")}
    move1, move2, point1, point2 = ([] for _ in range(4))
    for cls in range(22):
        x = cls - 4  # 17: exponent notation
        prefix = b"0." + b"0" * (-x - 1) if x < 0 else b""
        for frac in (0, 1):
            # where the point enters words 1-2; 16: nowhere
            at = x if 1 <= x <= 15 else 0 if frac and x in (0, 17) else 16
            move1.append(full - keep1[at])
            move2.append(full - keep2[at])
            dot = ord(".") << 8 * at if frac and at < 16 else 0
            point1.append(dot & full)
            point2.append(dot >> 64)
            for sign in (b"", b"-"):
                for delimiter, table in word0.items():
                    table.append(word((delimiter + sign + prefix + b"0").rjust(8, b"\0")))

    tables = {
        "hi": hi, "head": head, "tail": hi - head, "lo": np.array(lo),
        "point": np.array(point), "class": np.array(twice_class),
        "ascii4": ascii4, "ascii4_hi": ascii4 << 32, "zeros4": zeros4,
        **{name: np.array(table, np.uint64) for name, table in [
            ("exponent", exponent), ("keep1", keep1), ("keep2", keep2),
            ("move1", move1), ("move2", move2), ("point1", point1), ("point2", point2),
            *(("word0" + delimiter.decode(), table) for delimiter, table in word0.items())]},
    }
    for table in tables.values():
        table.setflags(write=False)  # shared by every call
    return tables


def _g17_scratch(n: int) -> tuple:
    """The temporaries of ``_g17`` for up to n numbers, allocated once and
    reused by every call handed them: ``_G17_ROWS`` rows of n eight-byte
    words, viewed as float64, int64 or uint64 by turns, and three boolean rows."""
    return np.empty((_G17_ROWS, n)), np.empty((3, n), bool)


def _g17_scaled(a: np.ndarray, e: np.ndarray, rows: np.ndarray) -> None:
    """|x| 10^(16 - e) as p + t into ``rows[0]`` and ``rows[1]``: p = fl(a hi)
    and t its rounding error, which Dekker's two-product gives exactly, plus
    a lo.  ``rows[2:]`` are seven temporaries the size of a."""
    tab = _g17_tables()
    p, t, acc, hi, head, tail, lo, a_head, a_tail = rows
    i = acc.view(np.int64)
    np.add(e, _G17_EXP + 1, out=i)
    for name, row in (("hi", hi), ("head", head), ("tail", tail), ("lo", lo)):
        np.take(tab[name], i, out=row, mode="clip")
    np.multiply(a, _G17_SPLIT, out=a_head)  # Dekker's split of a
    np.subtract(a_head, a, out=a_tail)
    np.subtract(a_head, a_tail, out=a_head)
    np.subtract(a, a_head, out=a_tail)
    np.multiply(a, hi, out=p)
    # ((a_head head - p) + a_head tail + a_tail head) + a_tail tail, then + a lo
    product = hi
    np.multiply(a_head, head, out=acc)
    acc -= p
    for u, v in ((a_head, tail), (a_tail, head), (a_tail, tail)):
        np.multiply(u, v, out=product)
        acc += product
    np.multiply(a, lo, out=product)
    np.add(acc, product, out=t)


def _g17_digits(x: np.ndarray, scratch=None):
    """The 17 significant digits D of each entry of ``x.ravel()`` as an int64
    (0 for zeros), its decimal exponent E after rounding, and the mask of the
    entries left to ``%``, on which D and E are 0.  The three are rows of
    ``scratch`` (see ``_g17_scratch``; fresh when None), kept until its next use."""
    x = np.ravel(x)
    words, flags = _g17_scratch(x.size) if scratch is None else scratch
    words, flags = words[:, :x.size], flags[:, :x.size]
    ints = words.view(np.int64)
    digits, e, a = ints[0], ints[1], words[2]
    p, t, whole, frac = words[3:7]  # rows 5-11 are _g17_scaled's temporaries first
    fast, mask, whole_int = flags[0], flags[1], ints[7]
    np.abs(x, out=a)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(a, out=p)
    np.floor(p, out=p)
    np.abs(p, out=t)
    np.less_equal(t, _G17_EXP, out=fast)  # False for zeros, infinities and nan
    np.logical_not(fast, out=mask)
    np.copyto(a, 1.0, where=mask)
    np.copyto(p, 0.0, where=mask)
    np.copyto(e, p, casting="unsafe")
    _g17_scaled(a, e, words[3:12])
    # log10 can round across a power of ten; p - 10^k is exact near 10^k
    off = whole_int
    np.subtract(p, 1e17, out=whole)
    whole += t
    np.greater_equal(whole, 0.0, out=mask)
    np.copyto(off, mask)
    np.subtract(p, 1e16, out=whole)
    whole += t
    np.less(whole, -0.01, out=mask)
    off -= mask
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        rows = np.empty((9, redo.size))
        _g17_scaled(a[redo], e[redo], rows)
        p[redo], t[redo] = rows[:2]
    np.floor(t, out=whole)
    np.subtract(t, whole, out=frac)
    np.copyto(digits, p, casting="unsafe")
    np.copyto(whole_int, whole, casting="unsafe")
    digits += whole_int
    np.greater_equal(frac, 0.5, out=mask)
    digits += mask
    np.equal(digits, 10**17, out=mask)  # rounded up to the next power of ten
    np.copyto(digits, 10**16, where=mask)
    e += mask
    ok = fast
    np.greater_equal(digits, 10**16, out=mask)
    ok &= mask
    np.less(digits, 10**17, out=mask)
    ok &= mask
    frac -= 0.5
    np.abs(frac, out=frac)
    np.greater_equal(frac, _G17_TIE, out=mask)
    ok &= mask
    slow = np.logical_not(ok, out=fast)
    np.copyto(digits, 0, where=slow)
    np.copyto(e, 0, where=slow)
    np.not_equal(x, 0.0, out=mask)
    slow &= mask
    return digits, e, slow


def _g17(x: np.ndarray, out=None, scratch=None, delimiter: bytes = b"") -> np.ndarray:
    """``CSV_FLOAT % v`` for every entry v of the float array x, as cells of
    four uint64 words (32 ASCII bytes padded with NULs), each led by
    ``delimiter`` (none, b"," or b"\\n"): into ``out``, shaped
    ``x.shape + (4,)``, or a new (x.size, 4) array in the order of
    ``x.ravel()``.  Every temporary is a row of ``scratch`` (see
    ``_g17_scratch``; fresh when None) but on the rare entries that carry
    across a power of ten, end in four zero digits or go to ``%``.  The %g
    rules: fixed notation for -4 <= X <= 16, else d.ddde+XX; trailing zeros
    of the fraction and a point with no digit after it are dropped."""
    if out is None:
        out = np.empty((np.size(x), 4), "<u8")
    shape = out.shape[:-1]
    if scratch is None:
        scratch = _g17_scratch(np.size(x))
    tab = _g17_tables()
    digits, e, slow = _g17_digits(x, scratch)
    words, flags = scratch[0][:, :digits.size], scratch[1][:, :digits.size]
    ints, bits = words.view(np.int64), words.view(np.uint64)
    mask = flags[1]

    def split(value, unit, high, low) -> None:
        """high, low = divmod(value, unit) for value >= 0, by floor_divide
        and multiply-subtract."""
        np.floor_divide(value, unit, out=high)
        np.multiply(high, unit, out=low)
        np.subtract(value, low, out=low)

    # the leading digit, then the 16 after it in halves of 8 and quads of 4
    lead, rest, first, q0, q1, q2, q3 = ints[2:9]
    last = ints[9]
    split(digits, 10**16, lead, rest)
    split(rest, 10**8, first, last)
    split(first, 10**4, q0, q1)
    split(last, 10**4, q2, q3)
    zeros4 = tab["zeros4"]
    zeros, ei, point = ints[3], ints[4], ints[9]
    np.take(zeros4, q3, out=zeros, mode="clip")
    np.equal(q3, 0, out=mask)
    left = np.flatnonzero(mask)  # the last four digits are zeros: look further left
    if left.size:
        l1, l2, l3 = (quad[left] for quad in (q0, q1, q2))
        zeros[left] += np.where(l3 > 0, zeros4[l3], 4 + np.where(
            l2 > 0, zeros4[l2], 4 + zeros4[l1]))
    np.add(e, _G17_EXP + 1, out=ei)
    np.take(tab["point"], ei, out=point, mode="clip")  # digits before the point
    shown = digits  # digits printed
    np.subtract(17, zeros, out=shown)
    np.maximum(shown, point, out=shown)
    k = zeros  # 2 class + (a fraction is shown)
    np.take(tab["class"], ei, out=k, mode="clip")
    np.greater(shown, point, out=mask)
    k += mask
    after = shown  # digits shown after the leading one, 8 per word
    after -= 1

    w1, table, w2 = bits[9:12]
    up1, up2 = bits[5:7]  # q0 and q1 are spent by then

    def gather(name, index, row=table):
        return np.take(tab[name], index, out=row, mode="clip")

    def cell(word: int, *parts) -> None:
        np.bitwise_or(*(part.reshape(shape) for part in parts), out=out[..., word])

    np.bitwise_or(gather("ascii4", q0, w1), gather("ascii4_hi", q1), out=w1)
    w1 &= gather("keep1", after)
    np.bitwise_or(gather("ascii4", q2, w2), gather("ascii4_hi", q3), out=w2)
    w2 &= gather("keep2", after)
    np.bitwise_and(w1, gather("move1", k, up1), out=up1)
    np.bitwise_and(w2, gather("move2", k, up2), out=up2)
    # words 1-2: the digits, those from the point on moved up one byte
    w1 ^= up1
    np.left_shift(up1, 8, out=table)
    w1 |= table
    cell(1, w1, gather("point1", k))
    w2 ^= up2
    np.left_shift(up2, 8, out=table)
    w2 |= table
    up1 >>= 56
    w2 |= up1
    cell(2, w2, gather("point2", k))
    # word 3: the byte pushed out of word 2, then the exponent
    up2 >>= 56
    cell(3, up2, gather("exponent", ei))
    # word 0: the delimiter, sign and prefix, then the leading digit
    x = np.ravel(x)
    np.signbit(x, out=mask)
    k += k
    k += mask
    lead = lead.view(np.uint64)
    np.left_shift(lead, 56, out=lead)
    cell(0, lead, gather("word0" + delimiter.decode(), k))
    for i in np.flatnonzero(slow):
        text = delimiter + (CSV_FLOAT % float(x[i])).encode()
        out[np.unravel_index(i, shape)] = np.frombuffer(text.ljust(32, b"\0"), "<u8")
    return out
