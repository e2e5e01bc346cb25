import numpy as np
import pytest

from puxp import dataio
from puxp.dataio import (
    Checkpoint,
    load_checkpoint,
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

    def test_vectorised_parse_equals_the_line_loop_bitwise(self, tmp_path, monkeypatch):
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
        slow = dataio._read_xyz_lines(p).points
        monkeypatch.setattr(dataio, "_read_xyz_lines", None)  # the fast parse must not need it
        fast = read_xyz(p).points
        assert fast.tobytes() == slow.tobytes()
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

    def test_negative_face_count_names_the_file(self, tmp_path):
        p = tmp_path / "m.off"
        p.write_text("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(FormatError, match=r"m\.off: negative face count -1"):
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


class TestCheckpoint:
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
