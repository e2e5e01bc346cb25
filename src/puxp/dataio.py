"""File formats: XYZ clouds, OFF meshes, key=value files, PUXP1 checkpoints, CSV reports.

Text inputs share one line rule (`_Lines`), and XYZ files and OFF vertex rows
one row reader (`_xyz_rows`); readers reject malformed input naming `path:line`
instead of guessing. Writers are deterministic: the same data always produces
the same bytes, which is what the reproducibility checks diff. A report CSV's
columns are the fields of its row dataclass (`_write_table`).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import os
import pathlib
import struct
import warnings

import numpy as np

from .errors import ConfigError, FormatError
from .geometry import PointCloud, TriangleMesh
from .metrics import MetricReport

CHECKPOINT_MAGIC = b"PUXP1"


# ---------------------------------------------------------------------------
# Text lines


class _Lines:
    """The line rule of every text input (XYZ, OFF, a compare file, a checkpoint
    header): UTF-8, lines ended by "\\n", "\\r\\n" or "\\r", each stripped; `texts`
    leaves out blank lines and '#' comments. `data` is the input's bytes, read
    from `path` when not given. Lines are numbered only when an error needs it.
    """

    def __init__(self, path, data=None):
        data = pathlib.Path(path).read_bytes() if data is None else data
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read().count("\n") + 1
            raise FormatError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
        self.path = path
        self._stripped = list(map(str.strip, io.StringIO(text, newline=None)))
        self.texts = [s for s in self._stripped if s and s[0] != "#"]

    def number(self, i):
        """The line number of texts[i]; from len(texts) on, the input's last line."""
        kept = [n for n, s in enumerate(self._stripped, 1) if s and s[0] != "#"]
        return kept[i] if i < len(kept) else max(len(self._stripped), 1)

    def error(self, i, message):
        return FormatError(f"{self.path}:{self.number(i)}: {message}")


def read_fields(path, data=None):
    """{key: value} of `key=value` lines, both sides stripped; a line without
    '=', an empty key or a key set twice is refused. `data` holds the text
    when it is part of `path` (a checkpoint header)."""
    lines = _Lines(path, data)
    fields, first = {}, {}
    for i, text in enumerate(lines.texts):
        if "=" not in text:
            raise lines.error(i, f"expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if not key:
            raise lines.error(i, f"empty key in {text!r}")
        if key in fields:
            raise lines.error(i, f"key {key!r} is set again (first set on line {lines.number(first[key])})")
        fields[key], first[key] = value, i
    return fields


# ---------------------------------------------------------------------------
# XYZ point clouds


def _xyz_rows(lines, lo, hi):
    """texts[lo:hi] (lo < hi) as float64 rows of three finite numbers, by one
    vectorised parse; only where it fails are the lines walked to name the
    first bad one, or the end of a truncated file. NumPy's parser reads ASCII
    numbers only: `1_0`, or digits of other scripts, are not numbers here."""
    if hi <= len(lines.texts):
        try:
            points = np.loadtxt(itertools.islice(lines.texts, lo, hi), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            points = None
        if points is not None and points.shape[1] == 3 and np.isfinite(points).all():
            return points
    rows = []
    for i in range(lo, hi):
        if i == len(lines.texts):
            raise lines.error(i, "truncated file while reading coordinate")
        text = lines.texts[i]
        count = len(text.split())
        if count != 3:
            raise lines.error(i, f"expected 3 coordinates, got {count}")
        try:
            xyz = np.loadtxt([text], dtype=np.float64, comments=None)
        except ValueError:
            raise lines.error(i, f"not a number: {text!r}") from None
        if not np.isfinite(xyz).all():
            raise lines.error(i, "non-finite coordinate")
        rows.append(xyz)
    return np.array(rows)


def read_xyz(path):
    """One point per line, three whitespace-separated floats (_xyz_rows)."""
    lines = _Lines(path)
    if not lines.texts:
        raise lines.error(0, "no points")
    return PointCloud(_xyz_rows(lines, 0, len(lines.texts)), _fresh=True)


def write_xyz(path, cloud):
    # one %-format over all rows; for finite floats "%.9g" is "{:.9g}"
    text = ("%.9g %.9g %.9g\n" * cloud.count) % tuple(cloud.points.ravel().tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# OFF meshes


def read_off(path):
    """OFF mesh reader: polygons fan-triangulated, zero-area faces dropped.

    Rows: `OFF`, with the vertex, face and edge counts on its line (also
    glued, as in `OFF3 1 0`) or the next; per vertex an XYZ row (_xyz_rows); per
    face its arity, its indices and optional colour values, which are skipped."""
    lines = _Lines(path)
    rows = lines.texts

    def split(i, what):
        if i == len(rows):
            raise lines.error(i, f"truncated file while reading {what}")
        return rows[i].split()

    def integer(i, token, what):
        """ASCII decimal digits after an optional sign, the grammar of _xyz_rows."""
        digits = token[1:] if token[:1] in ("+", "-") else token
        if not (digits.isascii() and digits.isdigit()):
            raise lines.error(i, f"bad {what}: {token!r}")
        return int(token)

    if not rows:
        raise lines.error(0, "empty file")
    head = rows[0].split()[0]
    if head != "OFF" and not (head.startswith("OFF") and head[3:].lstrip("-").isdigit()):
        raise lines.error(0, f"missing OFF header, found {head!r}")
    at, counts = 0, rows[0][3:].split()
    if not counts:
        at, counts = 1, split(1, "vertex count")
    values = [integer(at, t, what) for t, what in zip(counts, ("vertex count", "face count", "edge count"))]
    if len(counts) != 3:
        raise lines.error(at, f"expected 3 counts, got {len(counts)}")
    n_verts, n_faces, _ = values
    if n_verts < 1:
        raise lines.error(at, "no vertices")
    if n_faces < 0:
        raise lines.error(at, f"negative face count {n_faces}")
    first = at + 1 + n_verts  # the row of face 0
    verts = _xyz_rows(lines, at + 1, first)
    faces = []
    for fi, i in enumerate(range(first, first + n_faces)):
        arity, *listed = split(i, "face arity")
        arity = integer(i, arity, "face arity")
        if arity < 3:
            raise lines.error(i, f"face {fi} has {arity} vertices")
        ids = [integer(i, token, "face index") for token in listed[:arity]]
        if len(ids) < arity:
            raise lines.error(i, f"face {fi} has {arity} vertices but lists {len(ids)}")
        for vid in ids:
            if not 0 <= vid < n_verts:
                raise lines.error(i, f"face {fi} references vertex {vid} of {n_verts}")
        faces.extend((ids[0], a, b) for a, b in zip(ids[1:], ids[2:]))  # fan triangulation
    end = first + n_faces
    if end < len(rows):
        raise lines.error(end, f"unexpected token {rows[end].split()[0]!r} after the last face")
    mesh, dropped = TriangleMesh.filtered(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} zero-area faces")
    return mesh


# ---------------------------------------------------------------------------
# PUXP1 checkpoints


def _utf8(text):
    """The UTF-8 bytes of a str, or None where it is not one or holds a lone surrogate."""
    try:
        return text.encode("utf-8") if isinstance(text, str) else None
    except UnicodeEncodeError:
        return None


@dataclasses.dataclass
class Checkpoint:
    """Spec fields (flat strings) plus named float32 parameter arrays.

    Construction refuses what save_checkpoint cannot write or load_checkpoint
    would read back changed, so a save never stops half way through a file.
    """

    fields: dict
    params: list  # (name, float32 ndarray) in a fixed order

    def __post_init__(self):
        # each field must read back unchanged through read_fields
        for key, value in self.fields.items():
            plain = all(
                _utf8(s) is not None and s == s.strip() and "\n" not in s and "\r" not in s for s in (key, value)
            )
            if not (plain and key and not key.startswith("#") and "=" not in key):
                raise FormatError(f"invalid checkpoint field {key!r}")
        for i, (name, _) in enumerate(self.params):
            encoded = _utf8(name)
            if encoded is None or len(encoded) > 0xFFFF:  # its length is written as "<H"
                raise FormatError(f"invalid checkpoint parameter name at index {i}: not UTF-8 of at most 65535 bytes")


def save_checkpoint(path, checkpoint):
    header = "".join(f"{k}={v}\n" for k, v in checkpoint.fields.items()).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(checkpoint.params)))
        for name, values in checkpoint.params:
            encoded = name.encode("utf-8")
            arr = np.asarray(values, dtype="<f4")  # tobytes() is C order; 0-d stays 0-d
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; every length in the file is checked against its size before it is read."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} checkpoint (magic {magic!r})")
        left = os.fstat(f.fileno()).st_size - len(magic)

        def read(n):
            nonlocal left
            if n > left:
                raise FormatError(f"{path}: truncated checkpoint")
            left -= n
            return f.read(n)

        (header_len,) = struct.unpack("<I", read(4))
        fields = read_fields(path, read(header_len))
        (n_params,) = struct.unpack("<I", read(4))
        params = []
        for i in range(n_params):
            (name_len,) = struct.unpack("<H", read(2))
            raw = read(name_len)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: parameter {i} has a name that is not UTF-8") from None
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            values = np.frombuffer(read(4 * math.prod(shape)), dtype="<f4").reshape(shape)
            params.append((name, values.copy()))
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after checkpoint payload")
    return Checkpoint(fields, params)


def check_writable(path, key):
    """Raise ConfigError naming `key` and `path` unless a file can be written
    there. It writes nothing, so a command checks its outputs before its work."""
    directory = os.path.dirname(path) or "."
    if not path:
        reason = "the path is empty"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"directory {directory!r} does not exist"
    elif not os.access(directory, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"{key}: cannot write {path!r}: {reason}")


# ---------------------------------------------------------------------------
# CSV reports

METRIC_CONVENTIONS = (
    "# chamfer: squared distances, sum of both directed means",
    "# hausdorff: unsquared, max of both directed maxes",
    "# point_to_face: directed, mean prediction-to-mesh distance",
    "# values are raw (multiply by 1e3 for tabulated magnitudes)",
)


def _cell(value):
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, (float, np.floating)) else value


def _write_csv(path, lines, rows, footer=()):
    """`lines` (comments, a header) as given, `rows` quoted as the csv module quotes them, then `footer`."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(line + "\n" for line in lines)
        csv.writer(f, lineterminator="\n").writerows(rows)
        f.writelines(line + "\n" for line in footer)


def _write_table(path, comments, row_type, rows, footer=()):
    """A CSV with one column per field of the dataclass `row_type`: a float as "%.17g", None as empty."""
    names = [field.name for field in dataclasses.fields(row_type)]
    cells = ([_cell(getattr(row, name)) for name in names] for row in rows)
    _write_csv(path, [*comments, ",".join(names)], cells, footer)


def write_loss_csv(path, losses):
    _write_csv(path, ["# columns: step,chamfer_loss"], ((i, f"{value:.17g}") for i, value in enumerate(losses)))


def write_metric_csv(path, reports):
    _write_table(path, METRIC_CONVENTIONS, MetricReport, reports)


def write_comparison_csv(path, table):
    """Comparison matrix CSV with the run budget and reference footnote."""
    from .pipeline import ComparisonRow

    budget = "# budget: " + " ".join(f"{key}={value}" for key, value in table.config.budget_key().items())
    reference = (
        "# reference, full-scale PU1K benchmark (not reproduced at this scale): "
        "pu-gcn nodeshuffle cd=0.657e-3 vs proedgeshuffle cd=0.597e-3"
    )
    _write_table(path, [*METRIC_CONVENTIONS, budget], ComparisonRow, table.rows, [reference])
