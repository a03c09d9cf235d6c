"""The files a run leaves and their record: every numeric CSV, in one dialect
(a header row, comma delimiters, no comment prefix, every number in
``CSV_FLOAT`` but the swept ``value`` column of a sweep table, which is
written with ``str``), the SHA-256 digests of configs and outputs, and the
atomic write of a run's ``manifest.json``, a plain dict that
``cli._Run.finish`` builds.  Only ``write_csv`` calls ``_g17``, the numpy
kernel that gives the bytes of ``CSV_FLOAT % x`` for whole blocks: each
number a NUL-padded cell of four uint64 words (sign, prefix and leading
digit; the 16 digits after it, the point shifted in; exponent and delimiter)."""

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
CSV_BLOCK_ROWS = 4096  # about this many lines are assembled per block


def write_csv(path, axes, fields: dict) -> None:
    """Fields over one or two axes in long form, row-major: one line per
    point of the axes holding its axis values, then one column per field.
    ``axes`` holds one or two (name, values) pairs; each field has the shape
    of the axes.  Each axis value is formatted once, and a few first-axis
    rows at a time are assembled into lines, so memory stays flat."""
    texts = [_g17(np.asarray(axis, dtype=float)) for _, axis in axes]
    n_rows, n_cols = len(texts[0]), len(texts[1]) if len(texts) == 2 else 1
    values = [np.asarray(field, dtype=float).reshape(n_rows, n_cols) for field in fields.values()]
    width = len(texts) + len(values)
    step = max(1, CSV_BLOCK_ROWS // n_cols)
    with open(path, "wb") as fh:
        fh.write((",".join([*(name for name, _ in axes), *fields]) + "\n").encode())
        for r in range(0, n_rows, step):
            block = np.stack([field[r:r + step] for field in values], axis=-1)
            numbers = _g17(block).reshape(*block.shape, 4)
            # each cell is a number from _g17; the top byte of its word 3 is the delimiter
            cells = np.empty((len(block), n_cols, width, 4), "<u8")
            cells[:, :, 0] = texts[0][r:r + step, None]
            if len(texts) == 2:
                cells[:, :, 1] = texts[1]
            cells[:, :, len(texts):] = numbers
            cells[:, :, :-1, 3] |= ord(",") << 56
            cells[:, :, -1, 3] |= ord("\n") << 56
            fh.write(cells.tobytes().translate(None, b"\0"))
            del block, numbers, cells  # freed before the next block's kernel runs


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
# NULs ``write_csv`` strips.  Word 0 holds the sign (byte 0), the "0.000"
# prefix of X < 0 (bytes 1-5), the leading digit (byte 6) and, for X = 0 and
# exponent notation, its point (byte 7), from one table by class (X = -4..16
# or exponent notation) and by whether a fraction is shown.  Words 1-2 hold
# the 16 digits after the leading one, trailing zeros masked to NUL; for
# 1 <= X <= 15 the bytes from X on move up one byte, through per-class masks,
# and the point fills byte X.  Word 3 holds the byte that move pushed out of
# word 2 (byte 0), the exponent (bytes 1-5) and the delimiter (byte 7), which
# ``write_csv`` ORs in.
_G17_EXP = 280  # the largest |E| the power table serves
_G17_TIE = 1e-6  # in units of the 17th digit
_G17_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


@functools.cache
def _g17_tables() -> dict:
    """The tables ``_g17`` reads, built on first use.  By E in
    [-_G17_EXP - 1, _G17_EXP + 1]: 10^(16 - E) as hi + lo, hi also split into
    Dekker's head + tail; the digits before the point, twice the class, and
    word 3's exponent bytes ("e+05", "e-308"; none in fixed notation).  By
    0..9999: the ASCII of the four digits, in the low and in the high half of
    a word, and the count of trailing zeros.  By the digits shown after the
    leading one: the bytes of words 1 and 2 kept.  By 2 class + (a fraction is
    shown): word 0 with the leading digit '0', the bytes of words 1 and 2
    that move up one byte, and the point in each."""
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

    word0, move1, move2, point1, point2 = ([] for _ in range(5))
    for cls in range(22):
        x = cls - 4  # 17: exponent notation
        at = x if 1 <= x <= 15 else 16  # where the point enters words 1-2
        for frac in (0, 1):
            prefix = b"0." + b"0" * (-x - 1) if x < 0 else b""
            digit = b"0." if frac and x in (0, 17) else b"0"
            word0.append(word(b"\0" + prefix.ljust(5, b"\0") + digit))
            move1.append(full - keep1[at])
            move2.append(full - keep2[at])
            dot = ord(".") << 8 * at if frac and at < 16 else 0
            point1.append(dot & full)
            point2.append(dot >> 64)

    tables = {
        "hi": hi, "head": head, "tail": hi - head, "lo": np.array(lo),
        "point": np.array(point), "class": np.array(twice_class),
        "ascii4": ascii4, "ascii4_hi": ascii4 << 32, "zeros4": zeros4,
        **{name: np.array(table, np.uint64) for name, table in [
            ("exponent", exponent), ("keep1", keep1), ("keep2", keep2), ("word0", word0),
            ("move1", move1), ("move2", move2), ("point1", point1), ("point2", point2)]},
    }
    for table in tables.values():
        table.setflags(write=False)  # shared by every call
    return tables


def _g17_scaled(a: np.ndarray, e: np.ndarray):
    """|x| 10^(16 - e) as p + t: p = fl(a hi) and t its rounding error, which
    Dekker's two-product gives exactly, plus a lo."""
    tab = _g17_tables()
    i = e + (_G17_EXP + 1)
    hi, head, tail = tab["hi"][i], tab["head"][i], tab["tail"][i]
    split = _G17_SPLIT * a
    a_head = split - (split - a)
    a_tail = a - a_head
    p = a * hi
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * tab["lo"][i]


def _g17_digits(x: np.ndarray):
    """The 17 significant digits D of each entry as an int64 (0 for zeros),
    its decimal exponent E after rounding, and the mask of the entries left
    to ``%``, on which D and E are 0."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = np.abs(e) <= _G17_EXP  # False for zeros, infinities and nan
    a = np.where(fast, a, 1.0)
    e = np.where(fast, e, 0.0).astype(np.int64)
    p, t = _g17_scaled(a, e)
    # log10 can round across a power of ten; p - 10^k is exact near 10^k
    off = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < -0.01)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        p[redo], t[redo] = _g17_scaled(a[redo], e[redo])
    whole = np.floor(t)
    frac = t - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac >= 0.5)
    carry = digits == 10**17  # rounded up to the next power of ten
    digits[carry] = 10**16
    e += carry
    ok = fast & (digits >= 10**16) & (digits < 10**17) & (np.abs(frac - 0.5) >= _G17_TIE)
    return np.where(ok, digits, 0), np.where(ok, e, 0), ~ok & (x != 0)


def _g17(x: np.ndarray) -> np.ndarray:
    """``CSV_FLOAT % v`` for every entry v of the float array x, as cells of
    four uint64 words (32 ASCII bytes padded with NULs), in the order of
    ``x.ravel()``.  The %g rules: fixed notation for -4 <= X <= 16, else
    d.ddde+XX; trailing zeros of the fraction and a point with no digit after
    it are dropped."""
    x = np.ravel(x)
    tab = _g17_tables()
    digits, e, slow = _g17_digits(x)
    lead, rest = np.divmod(digits, 10**16)
    quads = (*np.divmod(rest // 10**8, 10**4), *np.divmod(rest % 10**8, 10**4))
    zeros4 = tab["zeros4"]
    zeros = zeros4[quads[3]]
    left = np.flatnonzero(quads[3] == 0)  # the last four digits are zeros: look further left
    if left.size:
        q1, q2, q3 = (quad[left] for quad in quads[:3])
        zeros[left] += np.where(q3 > 0, zeros4[q3], 4 + np.where(
            q2 > 0, zeros4[q2], 4 + zeros4[q1]))
    ei = e + (_G17_EXP + 1)
    point = tab["point"][ei]  # digits before the point
    shown = np.maximum(17 - zeros, point)  # digits printed
    k = tab["class"][ei] + (shown > point)  # 2 class + (a fraction is shown)

    after = shown - 1  # digits shown after the leading one, 8 per word
    w1 = (tab["ascii4"][quads[0]] | tab["ascii4_hi"][quads[1]]) & tab["keep1"][after]
    w2 = (tab["ascii4"][quads[2]] | tab["ascii4_hi"][quads[3]]) & tab["keep2"][after]
    up1 = w1 & tab["move1"][k]
    up2 = w2 & tab["move2"][k]
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = (tab["word0"][k] | lead.astype(np.uint64) << 48
                 | np.signbit(x).astype(np.uint64) * ord("-"))
    out[:, 1] = (w1 ^ up1) | up1 << 8 | tab["point1"][k]
    out[:, 2] = (w2 ^ up2) | up2 << 8 | up1 >> 56 | tab["point2"][k]
    out[:, 3] = up2 >> 56 | tab["exponent"][ei]
    for i in np.flatnonzero(slow):
        out[i] = np.frombuffer((CSV_FLOAT % float(x[i])).encode().ljust(32, b"\0"), "<u8")
    return out
