"""File formats: XYZ clouds, OFF meshes, key=value files, PUXP1 checkpoints, CSV reports.

Text inputs share one line rule (`_Lines`); readers reject malformed input
naming `path:line` instead of guessing. Writers are deterministic: the same
data always produces the same bytes, which is what the reproducibility checks diff.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import pathlib
import struct
import warnings

import numpy as np

from .errors import FormatError
from .geometry import PointCloud, TriangleMesh

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


def read_xyz(path):
    """One point per line, three whitespace-separated floats, read by one
    vectorised parse; only a file it rejects has its lines walked to name
    the first bad one."""
    lines = _Lines(path)
    try:
        points = np.loadtxt(lines.texts, dtype=np.float64, comments=None, ndmin=2) if lines.texts else None
    except ValueError:
        points = None
    if points is not None and points.shape[1] == 3 and np.isfinite(points).all():
        return PointCloud(points)
    for i, text in enumerate(lines.texts):
        count = len(text.split())
        if count != 3:
            raise lines.error(i, f"expected 3 coordinates, got {count}")
        try:
            xyz = np.loadtxt([text], dtype=np.float64, comments=None)
        except ValueError:
            raise lines.error(i, f"not a number: {text!r}") from None
        if not np.isfinite(xyz).all():
            raise lines.error(i, "non-finite coordinate")
    raise lines.error(len(lines.texts), "no points")


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
    glued, as in `OFF3 1 0`) or the next; 3 coordinates per vertex; per face
    its arity, its indices and optional colour values, which are skipped."""
    lines = _Lines(path)
    rows = lines.texts

    def split(i, what):
        if i == len(rows):
            raise lines.error(i, f"truncated file while reading {what}")
        return rows[i].split()

    def parse(i, token, what, cast):
        try:
            return cast(token)
        except ValueError:
            raise lines.error(i, f"bad {what}: {token!r}") from None

    if not rows:
        raise lines.error(0, "empty file")
    head = rows[0].split()[0]
    if head != "OFF" and not (head.startswith("OFF") and head[3:].lstrip("-").isdigit()):
        raise lines.error(0, f"missing OFF header, found {head!r}")
    at, counts = 0, rows[0][3:].split()
    if not counts:
        at, counts = 1, split(1, "vertex count")
    values = [parse(at, token, what, int) for token, what in zip(counts, ("vertex count", "face count", "edge count"))]
    if len(counts) != 3:
        raise lines.error(at, f"expected 3 counts, got {len(counts)}")
    n_verts, n_faces, _ = values
    if n_verts < 1:
        raise lines.error(at, "no vertices")
    if n_faces < 0:
        raise lines.error(at, f"negative face count {n_faces}")
    verts, first = [], at + 1 + n_verts  # first: the row of face 0
    for i in range(at + 1, first):
        xyz = [parse(i, token, "coordinate", float) for token in split(i, "coordinate")]
        if len(xyz) != 3:
            raise lines.error(i, f"expected 3 coordinates, got {len(xyz)}")
        if not np.isfinite(xyz).all():
            raise lines.error(i, "non-finite coordinate")
        verts.append(xyz)
    faces = []
    for fi, i in enumerate(range(first, first + n_faces)):
        arity, *listed = split(i, "face arity")
        arity = parse(i, arity, "face arity", int)
        if arity < 3:
            raise lines.error(i, f"face {fi} has {arity} vertices")
        ids = [parse(i, token, "face index", int) for token in listed[:arity]]
        if len(ids) < arity:
            raise lines.error(i, f"face {fi} has {arity} vertices but lists {len(ids)}")
        for vid in ids:
            if not 0 <= vid < n_verts:
                raise lines.error(i, f"face {fi} references vertex {vid} of {n_verts}")
        faces.extend((ids[0], a, b) for a, b in zip(ids[1:], ids[2:]))  # fan triangulation
    end = first + n_faces
    if end < len(rows):
        raise lines.error(end, f"unexpected token {rows[end].split()[0]!r} after the last face")
    mesh, dropped = TriangleMesh.filtered(np.array(verts), np.array(faces, dtype=np.int64).reshape(-1, 3))
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} zero-area faces")
    return mesh


# ---------------------------------------------------------------------------
# PUXP1 checkpoints


@dataclasses.dataclass
class Checkpoint:
    """Spec fields (flat strings) plus named float32 parameter arrays."""

    fields: dict
    params: list  # (name, float32 ndarray) in a fixed order

    def __post_init__(self):
        # each field must read back unchanged through read_fields
        for key, value in self.fields.items():
            plain = all(isinstance(s, str) and s == s.strip() and "\n" not in s and "\r" not in s for s in (key, value))
            if not (plain and key and not key.startswith("#") and "=" not in key):
                raise FormatError(f"invalid checkpoint field {key!r}")


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


def _read_exact(f, n, path):
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated checkpoint")
    return data


def load_checkpoint(path):
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} checkpoint (magic {magic!r})")
        (header_len,) = struct.unpack("<I", _read_exact(f, 4, path))
        fields = read_fields(path, _read_exact(f, header_len, path))
        (n_params,) = struct.unpack("<I", _read_exact(f, 4, path))
        params = []
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, path))
            name = _read_exact(f, name_len, path).decode("utf-8")
            (rank,) = struct.unpack("<B", _read_exact(f, 1, path))
            shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, path))
            count = int(np.prod(shape)) if rank else 1
            values = np.frombuffer(_read_exact(f, 4 * count, path), dtype="<f4").reshape(shape)
            params.append((name, values.copy()))
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after checkpoint payload")
    return Checkpoint(fields, params)


# ---------------------------------------------------------------------------
# CSV reports

METRIC_CONVENTIONS = (
    "# chamfer: squared distances, sum of both directed means",
    "# hausdorff: unsquared, max of both directed maxes",
    "# point_to_face: directed, mean prediction-to-mesh distance",
    "# values are raw (multiply by 1e3 for tabulated magnitudes)",
)


def _fmt(value):
    return "" if value is None else f"{value:.17g}"


def _write_csv(path, lines, rows, footer=()):
    """`lines` (comments, a header) as given, `rows` quoted as the csv module quotes them, then `footer`."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(line + "\n" for line in lines)
        csv.writer(f, lineterminator="\n").writerows(rows)
        f.writelines(line + "\n" for line in footer)


def write_loss_csv(path, losses):
    _write_csv(path, ["# columns: step,chamfer_loss"], ((i, f"{value:.17g}") for i, value in enumerate(losses)))


def write_metric_csv(path, reports):
    rows = ((r.label, _fmt(r.cd), _fmt(r.hd), _fmt(r.p2f), r.pred_count, r.gt_count) for r in reports)
    _write_csv(path, [*METRIC_CONVENTIONS, "label,cd,hd,p2f,pred_count,gt_count"], rows)


def write_comparison_csv(path, table):
    """Comparison matrix CSV with the run budget and reference footnote."""
    budget = (
        f"# budget: steps={table.steps} points={table.points} ratio={table.ratio} "
        f"backbone={table.backbone.kind}/{table.backbone.depth}x{table.backbone.width} "
        f"shapes={','.join(table.shapes)}"
    )
    rows = (
        (r.unit, r.index_mode, r.regression_mode, _fmt(r.cd), _fmt(r.hd), _fmt(r.p2f), r.unit_params,
         r.backbone_params, r.seeds)
        for r in table.rows
    )
    reference = (
        "# reference, full-scale PU1K benchmark (not reproduced at this scale): "
        "pu-gcn nodeshuffle cd=0.657e-3 vs proedgeshuffle cd=0.597e-3"
    )
    header = "unit,index_mode,regression_mode,cd,hd,p2f,unit_params,backbone_params,seeds"
    _write_csv(path, [*METRIC_CONVENTIONS, budget, header], rows, [reference])
