import re

import numpy as np
import pytest

from occspot.cloud import BoxLabel, PointCloud
from occspot.formats import (FormatError, frame_bytes, read_boxes,
                             read_checkpoint, read_frame, read_grid,
                             read_labels, write_boxes, write_checkpoint,
                             write_frame, write_grid, write_labels)
from occspot.occupancy import GridSpec, OccupancyGrid


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    # float32-representable payload so the f32 wire format is lossless here
    xyz = rng.normal(0, 20, (257, 3)).astype(np.float32).astype(np.float64)
    feat = rng.random((257, 2)).astype(np.float32).astype(np.float64)
    return PointCloud(xyz, feat)


def test_frame_round_trip_bytes(tmp_path, cloud):
    path = tmp_path / "a.sptc"
    write_frame(path, cloud)
    first = path.read_bytes()
    again = read_frame(path)
    write_frame(path, again)
    assert path.read_bytes() == first
    np.testing.assert_array_equal(again.xyz, cloud.xyz)
    np.testing.assert_array_equal(again.feat, cloud.feat)


def test_frame_header_layout(cloud):
    blob = frame_bytes(cloud)
    assert blob[:4] == b"SPTC"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == len(cloud)
    assert int.from_bytes(blob[12:16], "little") == cloud.d
    assert len(blob) == 16 + len(cloud) * (3 + cloud.d) * 4


def test_frame_bad_magic(tmp_path):
    path = tmp_path / "bad.sptc"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        read_frame(path)


def test_frame_truncated(tmp_path, cloud):
    path = tmp_path / "t.sptc"
    write_frame(path, cloud)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_frame(path)


def test_frame_nan_coordinate_names_the_file(tmp_path, cloud):
    path = tmp_path / "nan.sptc"
    raw = bytearray(frame_bytes(cloud))
    raw[16:20] = np.float32(np.nan).tobytes()  # the first point's x
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: point coordinates must be finite")):
        read_frame(path)


def test_labels_round_trip(tmp_path):
    labels = np.random.default_rng(1).integers(0, 16, 999)
    path = tmp_path / "a.sptl"
    write_labels(path, labels)
    first = path.read_bytes()
    again = read_labels(path)
    write_labels(path, again)
    assert path.read_bytes() == first
    np.testing.assert_array_equal(again, labels)


def test_labels_reject_wide_values(tmp_path):
    with pytest.raises(ValueError):
        write_labels(tmp_path / "x.sptl", np.array([300]))


def test_boxes_round_trip(tmp_path):
    boxes = [
        BoxLabel(1.5, -2.25, 0.5, 4.0, 2.0, 1.5, 0.25, 1.0, -0.5, 3, True),
        BoxLabel(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, class_id=15),
    ]
    path = tmp_path / "b.jsonl"
    write_boxes(path, boxes)
    first = path.read_text()
    again = read_boxes(path)
    write_boxes(path, again)
    assert path.read_text() == first
    assert again == boxes


def test_boxes_bad_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"cx": 1.0}\n')
    with pytest.raises(FormatError, match="bad box record"):
        read_boxes(path)


@pytest.mark.parametrize("record, why", [
    ('{"cx": 1.0}', "'cy'"),
    ("{not json", "Expecting property name"),
    ('{"cx": 0, "cy": 0, "cz": 0, "l": -1.0, "w": 1, "h": 1, "yaw": 0, '
     '"vx": 0, "vy": 0, "class_id": 1, "is_dynamic": false}',
     "box sizes must be strictly positive"),
    ('{"cx": 0, "cy": 0, "cz": 0, "l": 1, "w": 1, "h": 1, "yaw": 0, '
     '"vx": 0, "vy": 0, "class_id": 1, "is_dynamic": "false"}',
     'is_dynamic must be a bool, got "false"'),
    ('{"cx": 0, "cy": 0, "cz": 0, "l": 1, "w": 1, "h": 1, "yaw": 0, '
     '"vx": 0, "vy": 0, "class_id": true, "is_dynamic": false}',
     "class_id must be an integer, got true"),
    ('{"cx": 0, "cy": 0, "cz": 0, "l": 1, "w": 1, "h": 1, "yaw": 0, '
     '"vx": 0, "vy": 0, "class_id": 2.0, "is_dynamic": false}',
     "class_id must be an integer, got 2.0"),
    ('{"cx": true, "cy": 0, "cz": 0, "l": 1, "w": 1, "h": 1, "yaw": 0, '
     '"vx": 0, "vy": 0, "class_id": 1, "is_dynamic": false}',
     "cx must be a number, got true"),
    ('{"cx": 0, "cy": 0, "cz": 0, "l": 1, "w": 1, "h": 1, "yaw": 0, '
     '"vx": "0", "vy": 0, "class_id": 1, "is_dynamic": false}',
     'vx must be a number, got "0"'),
], ids=["missing-key", "not-json", "negative-size", "dynamic-string",
        "class-bool", "class-float", "geometry-bool", "geometry-string"])
def test_boxes_bad_record_names_file_and_line(tmp_path, record, why):
    path = tmp_path / "bad.jsonl"
    write_boxes(path, [BoxLabel(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)])
    path.write_text(path.read_text() + record + "\n")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}:2: bad box record: ") + ".*" + re.escape(why)):
        read_boxes(path)


def test_boxes_integer_numbers_are_read(tmp_path):
    # a JSON integer is a number: "vx": 0 reads as a zero velocity
    path = tmp_path / "b.jsonl"
    path.write_text('{"cx": 1, "cy": -2, "cz": 0, "l": 4, "w": 2, "h": 1, '
                    '"yaw": 0, "vx": 0, "vy": 0, "class_id": 3, '
                    '"is_dynamic": true}\n')
    assert read_boxes(path) == [BoxLabel(1.0, -2.0, 0.0, 4.0, 2.0, 1.0, 0.0,
                                         0.0, 0.0, 3, True)]


def test_grid_round_trip(tmp_path):
    spec = GridSpec(-2.0, -3.0, 0.25, 12, 10, -1.0, 2.0, n_cls=15)
    labels = np.random.default_rng(2).integers(0, 16, (12, 10))
    grid = OccupancyGrid(spec, labels)
    path = tmp_path / "g.spog"
    write_grid(path, grid)
    first = path.read_bytes()
    again = read_grid(path)
    write_grid(path, again)
    assert path.read_bytes() == first
    np.testing.assert_array_equal(again.labels, labels)
    assert again.spec.h == 12 and again.spec.w == 10
    assert again.spec.cell_size == pytest.approx(0.25)


def test_grid_row_major_layout(tmp_path):
    spec = GridSpec(0.0, 0.0, 1.0, 2, 3, -1.0, 1.0, n_cls=5)
    grid = OccupancyGrid(spec, [[1, 2, 3], [4, 5, 0]])
    path = tmp_path / "g.spog"
    write_grid(path, grid)
    body = path.read_bytes()[-6:]
    assert list(body) == [1, 2, 3, 4, 5, 0]


def test_checkpoint_round_trip(tmp_path):
    header = {"model": {"n_cls": 15}, "seed": 3}
    blob = np.random.default_rng(3).normal(size=128).astype(np.float32)
    path = tmp_path / "c.spck"
    write_checkpoint(path, header, blob)
    first = path.read_bytes()
    h2, b2 = read_checkpoint(path)
    write_checkpoint(path, h2, b2)
    assert path.read_bytes() == first
    assert h2 == header
    np.testing.assert_array_equal(b2.astype(np.float32), blob)


def test_atomic_write_leaves_no_partials(tmp_path):
    # a failed write must not leave temp files or clobber the target
    target = tmp_path / "out.bin"
    target.write_bytes(b"original")

    class Boom(Exception):
        pass

    import occspot.formats as fmts
    try:
        fd_holder = {}
        real_fdopen = fmts.os.fdopen

        def exploding_fdopen(fd, mode):
            f = real_fdopen(fd, mode)

            class W:
                def __enter__(self):
                    return self

                def __exit__(self, *a):
                    f.close()
                    return False

                def write(self, data):
                    raise Boom()

            return W()

        fmts.os.fdopen = exploding_fdopen
        with pytest.raises(Boom):
            fmts.atomic_write_bytes(target, b"new")
    finally:
        fmts.os.fdopen = real_fdopen
    assert target.read_bytes() == b"original"
    assert list(tmp_path.glob("*.tmp")) == []


READERS = {"SPTC": (read_frame, 16), "SPTL": (read_labels, 12),
           "SPOG": (read_grid, 29), "SPCK": (read_checkpoint, 12)}


@pytest.mark.parametrize("magic", sorted(READERS))
@pytest.mark.parametrize("size", [4, 8, "one-short"])
def test_truncated_header_names_the_file(tmp_path, magic, size):
    reader, header = READERS[magic]
    path = tmp_path / "cut.bin"
    n = header - 1 if size == "one-short" else size
    path.write_bytes((magic.encode() + (1).to_bytes(4, "little")
                      + bytes(header))[:n])
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(path))}: truncated .* header$"):
        reader(path)


@pytest.mark.parametrize("magic", sorted(READERS))
def test_unsupported_version_names_the_file(tmp_path, magic):
    reader, header = READERS[magic]
    path = tmp_path / "v2.bin"
    path.write_bytes(magic.encode() + (2).to_bytes(4, "little")
                     + bytes(header - 8))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(path))}: unsupported .* version 2$"):
        reader(path)


def test_checkpoint_header_longer_than_file(tmp_path):
    path = tmp_path / "m.spck"
    write_checkpoint(path, {"a": 1}, np.zeros(3))
    data = bytearray(path.read_bytes())
    data[8:12] = (len(data)).to_bytes(4, "little")  # header runs past the end
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="truncated checkpoint body"):
        read_checkpoint(path)


def test_checkpoint_header_not_json_names_the_file(tmp_path):
    path = tmp_path / "m.spck"
    write_checkpoint(path, {"a": 1}, np.zeros(3))
    data = bytearray(path.read_bytes())
    data[12] = 0xFF  # not UTF-8
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "
                       "checkpoint header is not JSON"):
        read_checkpoint(path)
