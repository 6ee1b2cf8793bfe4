"""One codec per on-disk format family.

- Configs: `key = value` lines for a config dataclass; a value is cast by
  the type of its field's default (a tuple's items by its first item's).
- Text rows: header `<rows>\\t<dim>`, then per row `<key>` and, for each
  prefix, a tab, the prefix and `dim` comma-separated floats.
- Pairs: `<key>\\t<key>\\t<label>` lines (edge and ground-truth files).
- Binary: 8-byte magic; little-endian u32 version, layers, input dim and
  embed dim; stacks of per-layer row-major `<f8` matrices (layer 0 is
  input dim x embed dim, the rest embed dim x embed dim); a fixed tail.

Text readers skip blank and `#` lines. Readers raise DataFormatError,
naming the line where there is one, for input they cannot represent:
unknown, empty or duplicate keys, non-finite or ragged values, non-UTF-8
text, a size that disagrees with its header. Text writers refuse, before
they replace anything, a key their readers could not read back: empty,
starting with `#`, or holding a tab or a line break.
"""

from __future__ import annotations

import dataclasses
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


def read_rows(path, prefixes=("",)) -> tuple[list[str], list[np.ndarray]]:
    """Read a text-row file: (keys, one rows x dim matrix per prefix)."""
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
    with atomic_write(path) as f:
        f.write("%d\t%d\n" % mats[0].shape)
        for i, key in enumerate(keys):
            f.write(key + "".join(
                f"\t{p}" + ",".join(format(float(x), ".17g") for x in m[i])
                for p, m in zip(prefixes, mats)) + "\n")


def write_pairs(path, key_map, groups) -> None:
    """Write one `<key>\\t<key>\\t<label>` line per pair, for each
    (pairs, label) group in order; every key of `key_map` is checked."""
    _check_keys(path, key_map.keys())
    with atomic_write(path) as f:
        for pairs, label in groups:
            for u, v in pairs:
                f.write(f"{key_map.key_of(u)}\t{key_map.key_of(v)}\t{label}\n")


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
