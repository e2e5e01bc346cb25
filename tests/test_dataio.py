import pathlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puxp.dataio import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    load_checkpoint,
    read_fields,
    read_off,
    read_xyz,
    save_checkpoint,
    write_loss_csv,
    write_metric_csv,
    write_xyz,
)
from puxp.errors import FormatError
from puxp.geometry import PointCloud
from puxp.metrics import MetricReport

from csv_reader import read_csv_rows


class TestXyz:
    def test_read_two_points(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 0\n1 2 3\n")
        cloud = read_xyz(p)
        assert cloud.count == 2
        assert np.array_equal(cloud.points[1], [1.0, 2.0, 3.0])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("# header\n\n0.5 0.5 0.5\n  \n# trailing\n")
        assert read_xyz(p).count == 1

    def test_round_trip_within_1e9(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        p = tmp_path / "a.xyz"
        write_xyz(p, cloud)
        back = read_xyz(p)
        assert np.allclose(back.points, cloud.points, atol=1e-9)

    def test_bytes_equal_the_per_row_format(self, tmp_path):
        rng = np.random.default_rng(1)
        special = [[-0.0, 5e-324, 1e-300], [123456789.123, -1.5e-7, 0.0], [1e300, -2.5, 1 / 3]]
        for points in (np.array(special), np.vstack([special, rng.normal(size=(50, 3)) * 1e3])):
            p = tmp_path / "a.xyz"
            write_xyz(p, PointCloud(points))
            expected = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in points)
            assert p.read_bytes() == expected.encode("utf-8")

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("a b c\n")
        with pytest.raises(FormatError, match=":1"):
            read_xyz(p)

    def test_wrong_arity_reports_line_number(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 0\n1 2\n")
        with pytest.raises(FormatError, match=":2"):
            read_xyz(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 inf\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_xyz(p)

    def test_vectorised_parse_equals_float_of_each_token_bitwise(self, tmp_path, monkeypatch):
        text = (
            "# header\r\n"
            "-0 1e-320 +1.5\r\n"
            "\t2.5\t-0.0 \t 3\n"
            "   # indented comment\n"
            "\n"
            "1e308 -4.9e-324 .5\n"
            "0.1 0.2 0.30000000000000004"
        )
        p = tmp_path / "a.xyz"
        p.write_bytes(text.encode("utf-8"))
        rows = [line.split() for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]
        want = np.array([[float(token) for token in row] for row in rows])
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw))
        fast = read_xyz(p).points
        assert len(calls) == 1  # a well-formed file takes the one vectorised parse
        assert fast.shape == (4, 3) and fast.tobytes() == want.tobytes()
        assert np.signbit(fast[0, 0]) and fast[0, 1] == 1e-320 and fast[1].tolist() == [2.5, -0.0, 3.0]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nan 0 0", "non-finite coordinate"),
            ("0 -inf 0", "non-finite coordinate"),
            ("1 2", "expected 3 coordinates, got 2"),
            ("1 2 3 4", "expected 3 coordinates, got 4"),
            ("1 2 3 # note", "expected 3 coordinates, got 5"),
            ("1 2 x", "not a number: '1 2 x'"),
        ],
    )
    def test_bad_line_message_and_number_unchanged(self, tmp_path, line, message):
        p = tmp_path / "a.xyz"
        p.write_text("# header\n0 0 0\n\n" + line + "\n1 1 1\n")
        with pytest.raises(FormatError) as caught:
            read_xyz(p)
        assert str(caught.value) == f"{p}:4: {message}"

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("# nothing\n")
        with pytest.raises(FormatError, match="no points"):
            read_xyz(p)


class TestOff:
    def test_minimal_triangle(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = read_off(p)
        assert mesh.face_count == 1

    def test_quad_fan_triangulated(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        mesh = read_off(p)
        assert mesh.face_count == 2

    def test_bad_face_index_names_face(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
        with pytest.raises(FormatError, match="face 0 references vertex 9"):
            read_off(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(FormatError, match="OFF header"):
            read_off(p)

    def test_zero_area_faces_dropped_with_warning(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n2 0 0\n3 0 1 2\n3 0 1 3\n")
        with pytest.warns(UserWarning, match="1 zero-area"):
            mesh = read_off(p)
        assert mesh.face_count == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vertex_names_its_line(self, tmp_path, bad):
        # the bad vertex is used by no face, but would poison any scale taken over the vertices
        p = tmp_path / "m.off"
        p.write_text(f"OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n# comment\n{bad} 0 1\n3 0 1 2\n3 0 2 1\n")
        with pytest.raises(FormatError, match=r"m\.off:7: non-finite coordinate"):
            read_off(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(FormatError, match="truncated"):
            read_off(p)

    def test_negative_face_count_names_its_line(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(FormatError, match=r"m\.off:2: negative face count -1"):
            read_off(p)

    def test_token_after_last_face_names_its_line(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\n# trailing\n3 0 2 1\n")
        with pytest.raises(FormatError, match=r"m\.off:9: unexpected token '3' after the last face"):
            read_off(p)

    def test_header_glued_to_count(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert read_off(p).face_count == 1

    def test_coloured_faces_load_as_the_uncoloured_mesh(self, tmp_path):
        body = "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        plain, coloured = tmp_path / "plain.off", tmp_path / "coloured.off"
        plain.write_text(body + "3 0 1 2\n3 0 1 3\n")
        coloured.write_text(body + "3 0 1 2 1 0 0\n3 0 1 3 0.5 0.5 0.5 1\n")
        want, got = read_off(plain), read_off(coloured)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces)

    def test_malformed_coordinate_names_its_line(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(FormatError, match=r"m\.off:4: bad coordinate: 'x'"):
            read_off(p)

    def test_face_errors_name_their_line(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n2 0 1\n")
        with pytest.raises(FormatError, match=r"m\.off:7: face 1 has 2 vertices"):
            read_off(p)
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
        with pytest.raises(FormatError, match=r"m\.off:6: face 0 references vertex 9 of 3"):
            read_off(p)


READERS = {".xyz": read_xyz, ".off": read_off, ".cfg": read_fields}


class TestTextInputs:
    """One line rule and one error form, `path:line: message`, for every text reader."""

    @pytest.mark.parametrize(
        "name, data, where",
        [
            # a vertex row short by one, and a face row short by one index
            ("m.off", b"OFF\n3 1 0\n1 0\n0 0 1 0\n0 1 0\n3 0 1 2\n", "3: expected 3 coordinates, got 2"),
            ("m.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n2\n", "6: face 0 has 3 vertices but lists 2"),
            ("m.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n", "4: truncated file while reading coordinate"),
            ("m.off", b"OFF\n0 0 0\n", "2: no vertices"),
            ("m.off", b"# mesh\nPLY\n3 1 0\n", "2: missing OFF header, found 'PLY'"),
            ("m.off", b"\n# nothing\n", "2: empty file"),
            ("m.off", b"OFF\n3\n1 0\n", "2: expected 3 counts, got 1"),
            ("m.off", b"OFF # a triangle\n3 1 0\n", "1: bad vertex count: '#'"),
            ("c.cfg", b"a=1\nnot key value\n", "2: expected key=value, got 'not key value'"),
            ("c.cfg", b"a=1\n = 2\n", "2: empty key in '= 2'"),
            ("c.cfg", b"a=1\n\nb=2\na = 3\n", "4: key 'a' is set again (first set on line 1)"),
            ("a.xyz", b"0 0 0\n1 1 1\n\xff 0 0\n", "3: not UTF-8 text (byte 0xff)"),
            ("a.xyz", b"0 0 0\r1 1 \xe9\n", "2: not UTF-8 text (byte 0xe9)"),
            ("a.xyz", b"1_000 0 0\n", "1: not a number: '1_000 0 0'"),
            ("a.xyz", b"# nothing\n\n", "2: no points"),
        ],
    )
    def test_error_names_path_line_and_message(self, tmp_path, name, data, where):
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(FormatError) as caught:
            READERS[p.suffix](p)
        assert str(caught.value) == f"{p}:{where}"

    ROWS = [
        "", "   ", "# note", "OFF", "OFF3 1 0", "3 1 0", "0 0 0", "1 0 0", "0 1 0", "1 0", "0 0 1 0",
        "3 0 1 2", "3 0 1 2 0.5 0.5 0.5", "3 0 1", "nan 0 0", "1_000 0 0", "k=v", " k = v ", "=v", "k",
    ]

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.one_of(
            st.binary(max_size=64),
            st.lists(st.tuples(st.sampled_from(ROWS), st.sampled_from(["\n", "\r\n", "\r"])), max_size=12).map(
                lambda rows: "".join(row + end for row, end in rows).encode("utf-8")
            ),
        )
    )
    def test_every_reader_returns_or_raises_format_error(self, tmp_path_factory, data):
        folder = tmp_path_factory.getbasetemp()
        for suffix, reader in READERS.items():
            p = folder / f"fuzz{suffix}"
            p.write_bytes(data)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.filterwarnings("ignore", "dropped .* zero-area faces")
                try:
                    reader(p)
                except FormatError as exc:
                    assert str(exc).startswith(f"{p}:")


class TestCheckpoint:
    BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data" / "proedgeshuffle-r4.puxp"

    def make(self):
        rng = np.random.default_rng(1)
        return Checkpoint(
            fields={"unit.kind": "branch", "unit.ratio": "4"},
            params=[("w", rng.normal(size=(3, 4)).astype(np.float32)), ("b", rng.normal(size=4).astype(np.float32))],
        )

    def test_round_trip_exact_at_f32(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "c.puxp"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.fields == ckpt.fields
        assert [n for n, _ in back.params] == ["w", "b"]
        for (_, a), (_, b) in zip(ckpt.params, back.params):
            assert np.array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        ckpt = self.make()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_foreign_magic_rejected(self, tmp_path):
        p = tmp_path / "c.puxp"
        p.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, tmp_path):
        ckpt = self.make()
        p = tmp_path / "c.puxp"
        save_checkpoint(p, ckpt)
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        ckpt = self.make()
        p = tmp_path / "c.puxp"
        save_checkpoint(p, ckpt)
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(p)

    def test_header_setting_a_key_twice_is_refused(self, tmp_path):
        data = self.BENCH.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        (size,) = struct.unpack("<I", data[len(CHECKPOINT_MAGIC) : start])
        header = data[start : start + size] + b"unit.index_mode=feature_knn\n"
        p = tmp_path / "c.puxp"
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header + data[start + size :])
        with pytest.raises(FormatError) as caught:
            load_checkpoint(p)
        assert str(caught.value) == f"{p}:12: key 'unit.index_mode' is set again (first set on line 5)"

    @pytest.mark.parametrize(
        "key, value",
        [("", "1"), ("#k", "1"), (" k", "1"), ("k ", "1"), ("k", " 1"), ("k", "1\t"), ("k", "a\rb"), ("a=b", "1"),
         ("k", 1)],
    )
    def test_field_the_reader_would_change_is_refused(self, key, value):
        with pytest.raises(FormatError, match="invalid checkpoint field"):
            Checkpoint({key: value}, [])

    @settings(max_examples=100, deadline=None)
    @given(
        fields=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=6),
        params=st.lists(
            st.tuples(
                st.text(max_size=8),
                st.lists(st.integers(0, 3), max_size=3).flatmap(
                    lambda shape: st.binary(min_size=4 * int(np.prod(shape)), max_size=4 * int(np.prod(shape))).map(
                        lambda raw: np.frombuffer(raw, dtype="<f4").reshape(shape)
                    )
                ),
            ),
            max_size=3,
        ),
    )
    def test_every_checkpoint_that_constructs_reads_back(self, tmp_path_factory, fields, params):
        try:
            ckpt = Checkpoint(fields, params)
        except FormatError:
            return
        self.assert_reads_back(tmp_path_factory.getbasetemp() / "property.puxp", ckpt)

    def test_spec_written_fields_read_back(self, tmp_path):
        fields = {"unit.k": "none", "data.shapes": "sphere,torus", "unit.edge_hidden": ""}
        self.assert_reads_back(tmp_path / "c.puxp", Checkpoint(fields, self.make().params))

    @staticmethod
    def assert_reads_back(path, ckpt):
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.fields == ckpt.fields
        assert [name for name, _ in back.params] == [name for name, _ in ckpt.params]
        for (_, want), (_, got) in zip(ckpt.params, back.params):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCsv:
    def test_loss_csv_row_count(self, tmp_path):
        p = tmp_path / "loss.csv"
        write_loss_csv(p, [0.5, 0.25, 0.125])
        data_rows = [l for l in p.read_text().splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 3
        assert data_rows[0].startswith("0,")

    def test_metric_csv_quotes_conventions(self, tmp_path):
        p = tmp_path / "m.csv"
        write_metric_csv(p, [MetricReport("sphere", 0.1, 0.2, None, 10, 40)])
        text = p.read_text()
        assert "# chamfer: squared" in text
        assert "# hausdorff: unsquared" in text
        rows = read_csv_rows(p)
        assert rows[0]["label"] == "sphere"
        assert rows[0]["p2f"] == ""

    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "m.csv"
        write_metric_csv(p, [MetricReport("a", 1.0 / 3.0, 0.2, 0.125, 8, 16)])
        row = read_csv_rows(p)[0]
        assert float(row["cd"]) == 1.0 / 3.0
