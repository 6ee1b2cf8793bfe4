"""One codec per on-disk format family.

- Configs: `key = value` lines for a config dataclass; a value is cast by
  the type of its field's default (a tuple's items by its first item's).
- Text rows: header `<rows>\\t<dim>`, then per row `<key>` and, for each
  prefix, a tab, the prefix and `dim` comma-separated floats.
- Pairs: `<key>\\t<key>\\t<label>` lines (edge and ground-truth files).
- Binary: 8-byte magic; little-endian u32 version, layers, input dim and
  embed dim; stacks of per-layer row-major `<f8` matrices (layer 0 is
  input dim x embed dim, the rest embed dim x embed dim); a fixed tail.

Text readers skip blank and `#` lines. They check and convert a whole
file at once, and read a file that fails those checks again line by line,
so that the error names its line. Readers raise DataFormatError,
naming the line where there is one, for input they cannot represent:
unknown, empty or duplicate keys, non-finite or ragged values, non-UTF-8
text, a size that disagrees with its header. Text writers refuse, before
they replace anything, a key their readers could not read back: empty,
starting with `#`, or holding a tab or a line break.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import struct

import numpy as np

from .errors import DataFormatError
from .util import atomic_write

HEADER = struct.Struct("<IIII")  # version, layers, input dim, embed dim


def text_lines(path):
    """Yield (line number, line without its newline) from a UTF-8 file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") \
                from None


def load_config(path, cls):
    """Read a config file into dataclass `cls`, whose fields all have
    defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {}
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = (s.strip() for s in line.partition("="))
        if not sep or key not in defaults:
            raise DataFormatError(f"{path}: bad config line {lineno}: {line!r}")
        if key in values:
            raise DataFormatError(
                f"{path}: duplicate key {key!r} on line {lineno}")
        many = isinstance(defaults[key], tuple)
        cast = type(defaults[key][0] if many else defaults[key])
        try:
            items = tuple(cast(x) for x in (raw.split(",") if many else [raw]))
            bad = cast is float and not all(map(math.isfinite, items))
        except ValueError:
            bad = True
        if bad:
            raise DataFormatError(
                f"{path}: bad or non-finite value for {key} on line {lineno}")
        values[key] = items if many else items[0]
    try:
        return cls(**values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_config(cfg, path) -> None:
    """Write config dataclass `cfg` as `load_config` reads it back."""
    with atomic_write(path) as f:
        for fld in dataclasses.fields(cfg):
            val = getattr(cfg, fld.name)
            if isinstance(val, tuple):
                val = ",".join(str(x) for x in val)
            f.write(f"{fld.name} = {val}\n")


def read_table(path, tabs, head=0) -> tuple[list[str], list[str]] | None:
    """One read of a UTF-8 file, split into lines as `text_lines` splits
    it: its first `head` lines, and the tab-separated fields of the other
    lines, less blank and `#` ones, in order. None if the file is not
    UTF-8 or one of those lines does not hold exactly `tabs` tabs."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError:
        return None
    top = lines[:head]
    rows = [s for s in lines[head:] if s and s[0] != "#"]
    del lines
    if set(map(str.count, rows, itertools.repeat("\t"))) - {tabs}:
        return None
    text = "\t".join(rows)
    del rows                        # hold the text once, not twice
    return top, text.split("\t") if text else []


# Digits, signs, points and exponents: on these bytes `np.fromstring`
# either refuses a field or reads the number `float` reads from it.
_FLOAT_BYTES = b"0123456789+-.eE,"


def _parse_floats(fields, prefixes, count) -> np.ndarray | None:
    """The `count` comma-separated floats of `fields`, less their cycled
    `prefixes`, all finite, from one conversion; None if the fields hold
    anything else. Empties `fields`, so that the text is not held twice.

    `np.fromstring` reads a long double with the C library, about twice
    as fast as it reads a double. Rounding that again gives the double
    `float` reads, unless it fell on a tie between two doubles (where
    `wide + (wide - flat)` is the other double). A tie returns None."""
    blob = ",".join(map(str.removeprefix, fields, itertools.cycle(prefixes)))
    fields.clear()
    blob = blob.encode()
    if blob.translate(None, _FLOAT_BYTES):
        return None
    try:
        wide = np.fromstring(blob, dtype=np.longdouble, sep=",")
    except ValueError:  # an empty or malformed field
        return None
    del blob
    if wide.size != count:
        return None
    # past the largest double, a number casts to inf, and inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        flat = wide.astype(np.float64)
        other = wide - flat
        other += wide
        tie = (wide != flat) & (other.astype(np.float64) == other)
    return None if tie.any() or not np.isfinite(flat).all() else flat


def read_rows(path, prefixes=("",)) -> tuple[list[str], list[np.ndarray]]:
    """Read a text-row file: (keys, one rows x dim matrix per prefix).

    The whole file is checked and converted at once; a file that does
    not pass is read again line by line, which names the faulty line."""
    got = _bulk_rows(path, prefixes)
    return got if got is not None else _scan_rows(path, prefixes)


def _bulk_rows(path, prefixes):
    """`read_rows` of a well-formed file, in a few list-wide checks and
    one conversion, or None for any file it does not accept. A prefix
    holds no comma."""
    g = len(prefixes)
    got = read_table(path, g, head=1)
    if got is None:
        return None
    (header,), fields = got
    try:
        n, d = map(int, header.split("\t"))
    except ValueError:
        return None
    if len(fields) != n * (g + 1):
        return None
    keys = fields[::g + 1]
    del fields[::g + 1]             # each row's groups, prefixed
    if not all(keys) or len(set(keys)) != n \
            or not all(map(str.startswith, fields, itertools.cycle(prefixes))) \
            or set(map(str.count, fields, itertools.repeat(","))) != {d - 1}:
        return None
    flat = _parse_floats(fields, prefixes, n * g * d)
    if flat is None:
        return None
    table = flat.reshape(n, g, d)
    return keys, [np.ascontiguousarray(table[:, j]) for j in range(g)]


def _scan_rows(path, prefixes):
    """`read_rows` one line at a time, raising DataFormatError at the
    first faulty line."""
    lines = text_lines(path)
    header = next(lines, (1, ""))[1]
    try:
        n, d = map(int, header.split("\t"))
    except ValueError:
        n = d = -1
    if n < 0 or d < 0:
        raise DataFormatError(f"{path}: bad header {header!r} on line 1")
    keys, rows = {}, []
    for lineno, line in lines:
        if not line or line.startswith("#"):
            continue
        if len(rows) == n:
            raise DataFormatError(
                f"{path}: more rows than the {n} the header declares "
                f"on line {lineno}")
        key, *blobs = line.split("\t")
        if not key or len(blobs) != len(prefixes) or not all(
                b.startswith(p) for b, p in zip(blobs, prefixes)):
            raise DataFormatError(f"{path}: bad row on line {lineno}")
        if key in keys:
            raise DataFormatError(
                f"{path}: duplicate key {key!r} on line {lineno}")
        groups = [b[len(p):].split(",") for b, p in zip(blobs, prefixes)]
        try:
            vals = np.array(groups, dtype=np.float64)
        except ValueError:  # ragged groups or not floats
            vals = np.array([math.nan])
        if vals.shape != (len(prefixes), d) or not np.isfinite(vals).all():
            raise DataFormatError(
                f"{path}: line {lineno} does not hold {d} finite floats "
                f"per group")
        keys[key] = None
        rows.append(vals)
    if len(rows) != n:
        raise DataFormatError(
            f"{path}: header declares {n} rows, found {len(rows)}")
    table = np.array(rows, dtype=np.float64).reshape(n, len(prefixes), d)
    return list(keys), [np.ascontiguousarray(table[:, j])
                        for j in range(len(prefixes))]


def _check_keys(path, keys) -> None:
    """Refuse a key a text file cannot hold as a field: empty, starting
    with `#` (a comment line), or holding a tab or a line break."""
    for key in keys:
        if not key or key[0] == "#" or any(c in key for c in "\t\r\n"):
            raise DataFormatError(
                f"{path}: key {key!r} cannot be written: a key must be "
                "non-empty, not start with '#' and hold no tab or line break")


def write_rows(path, keys, mats, prefixes=("",)) -> None:
    """Write what `read_rows` reads: row i is keys[i], then row i of each
    matrix behind its prefix, in round-trippable `.17g` floats."""
    _check_keys(path, keys)
    floats = ",".join(["%.17g"] * mats[0].shape[1])
    line = "%s" + "".join("\t" + p.replace("%", "%%") + floats
                          for p in prefixes) + "\n"
    with atomic_write(path) as f:
        f.write("%d\t%d\n" % mats[0].shape)
        for i, key in enumerate(keys):
            f.write(line % (key, *[x for m in mats for x in m[i].tolist()]))


def write_pairs(path, key_map, groups) -> None:
    """Write one `<key>\\t<key>\\t<label>` line per pair, for each
    (pairs, label) group in order; every key of `key_map` is checked."""
    keys = key_map.keys()
    _check_keys(path, keys)
    with atomic_write(path) as f:
        for pairs, label in groups:
            ids = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).tolist()
            f.writelines(f"{keys[u]}\t{keys[v]}\t{label}\n" for u, v in ids)


def write_binary(path, magic: bytes, version: int, stacks,
                 tail: bytes = b"") -> None:
    """Write a binary file whose stacks all have the first's shapes."""
    with atomic_write(path, "wb") as f:
        f.write(magic + HEADER.pack(version, len(stacks[0]),
                                    *stacks[0][0].shape))
        for m in (m for stack in stacks for m in stack):
            f.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
        f.write(tail)


def read_binary(path, magic: bytes, version: int, num_stacks: int,
                tail_size: int = 0) -> tuple[list[list[np.ndarray]], bytes]:
    """Read `num_stacks` stacks and the tail. The sizes the header
    declares are checked against the file's before any data is read."""
    with open(path, "rb") as f:
        head = f.read(len(magic) + HEADER.size)
        if head[:len(magic)] != magic or len(head) < len(magic) + HEADER.size:
            raise DataFormatError(
                f"{path}: not a {magic.decode()} file (bad magic or truncated "
                "header)")
        found, layers, d_in, d_h = HEADER.unpack_from(head, len(magic))
        if found != version:
            raise DataFormatError(
                f"{path}: format version {found} is not supported; this "
                f"release reads version {version}")
        if 0 in (layers, d_in, d_h):
            raise DataFormatError(
                f"{path}: header declares {layers} layers of {d_in} x {d_h}")
        count = num_stacks * (d_in * d_h + (layers - 1) * d_h * d_h)
        want = len(head) + 8 * count + tail_size
        size = os.fstat(f.fileno()).st_size
        if size != want:
            raise DataFormatError(
                f"{path}: {'truncated' if size < want else 'trailing bytes'}"
                f": the header declares {want} bytes, the file has {size}")
        flat = np.empty(count, dtype="<f8")
        f.readinto(flat)
        tail = f.read()
    if not np.isfinite(flat).all():
        raise DataFormatError(f"{path}: non-finite matrix values")
    shapes = [(d_in, d_h)] + [(d_h, d_h)] * (layers - 1)
    ends = np.cumsum([r * c for r, c in shapes] * num_stacks)
    mats = [m.reshape(s) for m, s in
            zip(np.split(flat, ends[:-1]), shapes * num_stacks)]
    return [mats[i:i + layers] for i in range(0, len(mats), layers)], tail
