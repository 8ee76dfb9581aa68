"""Bit-exact binary file formats and atomic writes.

All formats are little-endian with a 4-byte ASCII magic and a u32 version:

* ``SPTC`` frame:      magic, version=1, u32 N, u32 d, then N records of
  (f32 x, f32 y, f32 z, d x f32 features).
* ``SPTL`` labels:     magic, version=1, u32 N, N x u8 labels.
* ``SPOG`` grid:       magic, version=1, f32 origin_x, f32 origin_y,
  f32 cell_size, u32 H, u32 W, u8 n_cls, then H*W u8 labels row-major
  (y-major).
* ``SPCK`` checkpoint: magic, version=1, u32 header_len, JSON header
  (architecture, seed, shapes), then a contiguous f32 parameter blob.

Boxes travel as JSON-lines text: one object per line with keys
cx, cy, cz, l, w, h, yaw, vx, vy, class_id, is_dynamic.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .cloud import BoxLabel, PointCloud

__all__ = [
    "write_frame", "read_frame",
    "write_labels", "read_labels",
    "write_boxes", "read_boxes",
    "write_grid", "read_grid",
    "write_checkpoint", "read_checkpoint",
    "atomic_write_bytes", "atomic_write_text",
    "FormatError",
]

FRAME_MAGIC = b"SPTC"
LABEL_MAGIC = b"SPTL"
GRID_MAGIC = b"SPOG"
CKPT_MAGIC = b"SPCK"
VERSION = 1

BOX_KEYS = ("cx", "cy", "cz", "l", "w", "h", "yaw", "vx", "vy", "class_id", "is_dynamic")


class FormatError(ValueError):
    """Raised when a file does not match its declared format."""


def atomic_write_bytes(path, data: bytes) -> None:
    """Write `data` to `path` via a temp file + rename; never leaves partials.

    The file gets the mode ``open()`` gives a new file, 0o666 less the
    umask, not the temp file's 0o600.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _unpack(path, magic: bytes, fmt: str, kind: str) -> tuple[list, np.ndarray]:
    """Check magic, header length, version; return (later fields, u8 body)."""
    data = Path(path).read_bytes()
    size = 4 + struct.calcsize(fmt)
    _expect(data[:4] == magic, f"{path}: bad {kind} magic")
    _expect(len(data) >= size, f"{path}: truncated {kind} header")
    version, *fields = struct.unpack_from(fmt, data, 4)
    _expect(version == VERSION, f"{path}: unsupported {kind} version {version}")
    return fields, np.frombuffer(data, dtype=np.uint8, offset=size)


# -- frames -----------------------------------------------------------------

def write_frame(path, cloud: PointCloud) -> None:
    records = np.concatenate(
        [cloud.xyz.astype("<f4"), cloud.feat.astype("<f4")], axis=1)
    head = FRAME_MAGIC + struct.pack("<III", VERSION, cloud.n, cloud.d)
    atomic_write_bytes(path, head + records.tobytes())


def read_frame(path) -> PointCloud:
    (n, d), body = _unpack(path, FRAME_MAGIC, "<III", "frame")
    _expect(body.size == n * (3 + d) * 4, f"{path}: truncated frame body")
    records = body.view("<f4").reshape(n, 3 + d)
    try:
        return PointCloud(records[:, :3], records[:, 3:])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- labels -----------------------------------------------------------------

def write_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels)
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("labels must fit in u8")
    head = LABEL_MAGIC + struct.pack("<II", VERSION, arr.shape[0])
    atomic_write_bytes(path, head + arr.astype("<u1").tobytes())


def read_labels(path) -> np.ndarray:
    """The (N,) labels of an SPTL file, as stored: a read-only u8 view of
    the file's bytes, one byte per point, with no wider copy."""
    (n,), body = _unpack(path, LABEL_MAGIC, "<II", "label")
    _expect(body.size == n, f"{path}: truncated label body")
    return body


# -- boxes ------------------------------------------------------------------

def write_boxes(path, boxes: Sequence[BoxLabel]) -> None:
    lines = []
    for b in boxes:
        obj = {k: getattr(b, k) for k in BOX_KEYS}
        obj["is_dynamic"] = bool(obj["is_dynamic"])
        lines.append(json.dumps(obj, sort_keys=False))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


#: the JSON type of each box field, by the Python types json.loads gives it
#: (``type(v)`` is exact, so a bool is not a number)
_BOX_TYPES = {k: ((int, float), "a number") for k in BOX_KEYS[:9]} | {
    "class_id": ((int,), "an integer"), "is_dynamic": ((bool,), "a bool")}


def _box(obj: dict) -> BoxLabel:
    """The box of one record, with no field coerced to its type."""
    for k, (types, name) in _BOX_TYPES.items():
        if type(obj[k]) not in types:
            raise TypeError(f"{k} must be {name}, got {json.dumps(obj[k])}")
    return BoxLabel(**{k: obj[k] for k in BOX_KEYS})


def read_boxes(path) -> list[BoxLabel]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: boxes are not UTF-8 text: {exc}") from exc
    out = []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            out.append(_box(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
            raise FormatError(f"{path}:{i + 1}: bad box record: {exc}") from exc
    return out


# -- occupancy grids ---------------------------------------------------------

def write_grid(path, grid) -> None:
    spec = grid.spec
    labels = np.asarray(grid.labels)
    head = GRID_MAGIC + struct.pack(
        "<IfffIIB", VERSION, spec.origin_x, spec.origin_y, spec.cell_size,
        spec.h, spec.w, spec.n_cls)
    atomic_write_bytes(path, head + labels.astype("<u1").tobytes())


def read_grid(path):
    from .occupancy import GridSpec, OccupancyGrid  # local import: cycle guard

    (ox, oy, cell, h, w, n_cls), body = _unpack(path, GRID_MAGIC, "<IfffIIB", "grid")
    _expect(body.size == h * w, f"{path}: truncated grid body")
    # z bounds and densification settings are not part of the wire format;
    # readers get neutral z bounds spanning the default synthetic column.
    spec = GridSpec(origin_x=ox, origin_y=oy, cell_size=cell, h=h, w=w,
                    z_min=-2.0, z_max=4.0, n_cls=n_cls)
    return OccupancyGrid(spec, body.reshape(h, w).astype(np.int64))


# -- checkpoints -------------------------------------------------------------

def write_checkpoint(path, header: dict, blob: np.ndarray) -> None:
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    head = CKPT_MAGIC + struct.pack("<II", VERSION, len(payload))
    body = np.asarray(blob).astype("<f4").tobytes()
    atomic_write_bytes(path, head + payload + body)


def read_checkpoint(path) -> tuple[dict, np.ndarray]:
    (hlen,), body = _unpack(path, CKPT_MAGIC, "<II", "checkpoint")
    _expect(body.size >= hlen and (body.size - hlen) % 4 == 0,
            f"{path}: truncated checkpoint body")
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        header = json.loads(body[:hlen].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: checkpoint header is not JSON: {exc}") from exc
    return header, body[hlen:].view("<f4").astype(np.float32)
