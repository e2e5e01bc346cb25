"""File formats: XYZ clouds, OFF meshes, PUXP1 checkpoints, CSV reports.

Readers reject malformed input with the offending location instead of
guessing. Writers are deterministic: the same data always produces the same
bytes, which is what the reproducibility checks diff.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings

import numpy as np

from .errors import FormatError
from .geometry import PointCloud, TriangleMesh

CHECKPOINT_MAGIC = b"PUXP1"


# ---------------------------------------------------------------------------
# XYZ point clouds


def read_xyz(path):
    """One point per line, three whitespace-separated floats; '#' comments.

    One vectorised parse reads a well-formed file. A file it rejects is read
    again one line at a time, which names the first bad line.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [text for text in map(str.strip, f.read().split("\n")) if text and not text.startswith("#")]
    if lines:
        try:
            points = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return _read_xyz_lines(path)
        if points.shape[1] == 3 and np.isfinite(points).all():
            return PointCloud(points)
    return _read_xyz_lines(path)


def _read_xyz_lines(path):
    points = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
            try:
                xyz = [float(p) for p in parts]
            except ValueError:
                raise FormatError(f"{path}:{lineno}: not a number: {text!r}") from None
            if not all(np.isfinite(v) for v in xyz):
                raise FormatError(f"{path}:{lineno}: non-finite coordinate")
            points.append(xyz)
    if not points:
        raise FormatError(f"{path}: no points")
    return PointCloud(points)


def write_xyz(path, cloud):
    # one %-format over all rows; for finite floats "%.9g" is "{:.9g}"
    text = ("%.9g %.9g %.9g\n" * cloud.count) % tuple(cloud.points.ravel().tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# OFF meshes


def read_off(path):
    """OFF mesh reader: polygons fan-triangulated, zero-area faces dropped.

    Values after a face's indices on its line are colour and are skipped. A
    malformed or non-finite number, a bad face or a token after the last
    declared face is rejected naming its line; so is a negative face count,
    naming the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read()
    tokens = []  # (line number, token)
    for lineno, line in enumerate(raw.splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        tokens.extend((lineno, tok) for tok in text.split())
    if not tokens:
        raise FormatError(f"{path}: empty file")
    lineno, head = tokens.pop(0)
    if head != "OFF":
        if head.startswith("OFF") and head[3:].lstrip("-").isdigit():
            tokens.insert(0, (lineno, head[3:]))  # header glued to the vertex count
        else:
            raise FormatError(f"{path}: missing OFF header, found {head!r}")
    pos = 0  # next token to take
    at = lineno  # line of the token last taken

    def take(what, cast):
        nonlocal pos, at
        if pos == len(tokens):
            raise FormatError(f"{path}: truncated file while reading {what}")
        at, tok = tokens[pos]
        pos += 1
        try:
            value = cast(tok)
        except ValueError:
            raise FormatError(f"{path}:{at}: bad {what}: {tok!r}") from None
        if cast is float and not np.isfinite(value):
            raise FormatError(f"{path}:{at}: non-finite coordinate")
        return value

    n_verts = take("vertex count", int)
    n_faces = take("face count", int)
    take("edge count", int)
    if n_verts < 1:
        raise FormatError(f"{path}: no vertices")
    if n_faces < 0:
        raise FormatError(f"{path}: negative face count {n_faces}")
    verts = np.array(
        [[take("coordinate", float) for _ in range(3)] for _ in range(n_verts)]
    )
    faces = []
    for fi in range(n_faces):
        arity = take("face arity", int)
        if arity < 3:
            raise FormatError(f"{path}:{at}: face {fi} has {arity} vertices")
        ids = [take("face index", int) for _ in range(arity)]
        for vid in ids:
            if not 0 <= vid < n_verts:
                raise FormatError(f"{path}:{at}: face {fi} references vertex {vid} of {n_verts}")
        while pos < len(tokens) and tokens[pos][0] == at:  # colour values
            pos += 1
        for a, b in zip(ids[1:], ids[2:]):  # fan triangulation
            faces.append((ids[0], a, b))
    if pos < len(tokens):
        lineno, tok = tokens[pos]
        raise FormatError(f"{path}:{lineno}: unexpected token {tok!r} after the last face")
    mesh, dropped = TriangleMesh.filtered(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))
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
        for key, value in self.fields.items():
            if "=" in key or "\n" in key or "\n" in str(value):
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
            arr = np.ascontiguousarray(values, dtype="<f4")
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
        header = _read_exact(f, header_len, path).decode("utf-8")
        fields = {}
        for line in header.splitlines():
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}: malformed header line {line!r}")
            key, value = line.split("=", 1)
            fields[key] = value
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


def write_loss_csv(path, losses):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# columns: step,chamfer_loss\n")
        for i, value in enumerate(losses):
            f.write(f"{i},{value:.17g}\n")


def write_metric_csv(path, reports):
    with open(path, "w", encoding="utf-8") as f:
        for line in METRIC_CONVENTIONS:
            f.write(line + "\n")
        f.write("label,cd,hd,p2f,pred_count,gt_count\n")
        for r in reports:
            f.write(f"{r.label},{_fmt(r.cd)},{_fmt(r.hd)},{_fmt(r.p2f)},{r.pred_count},{r.gt_count}\n")


def write_comparison_csv(path, table):
    """Comparison matrix CSV with the run budget and reference footnote."""
    with open(path, "w", encoding="utf-8") as f:
        for line in METRIC_CONVENTIONS:
            f.write(line + "\n")
        f.write(
            f"# budget: steps={table.steps} points={table.points} ratio={table.ratio} "
            f"backbone={table.backbone.kind}/{table.backbone.depth}x{table.backbone.width} "
            f"shapes={','.join(table.shapes)}\n"
        )
        f.write("unit,index_mode,regression_mode,cd,hd,p2f,unit_params,backbone_params,seeds\n")
        for r in table.rows:
            f.write(
                f"{r.unit},{r.index_mode},{r.regression_mode},{_fmt(r.cd)},{_fmt(r.hd)},"
                f"{_fmt(r.p2f)},{r.unit_params},{r.backbone_params},{r.seeds}\n"
            )
        f.write(
            "# reference, full-scale PU1K benchmark (not reproduced at this scale): "
            "pu-gcn nodeshuffle cd=0.657e-3 vs proedgeshuffle cd=0.597e-3\n"
        )

