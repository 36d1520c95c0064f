import bz2
import gzip
import lzma

import numpy as np
import pytest

from jointscale import InvalidInput
from jointscale import fileio


class TestMatrixRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
        path = tmp_path / "m.csv"
        fileio.write_matrix(path, m)
        back = fileio.read_matrix(path)
        assert np.array_equal(back, m)

    def test_tsv_delimiter(self, tmp_path):
        m = np.array([[1.5, 2.25], [3.0, -4.125]])
        path = tmp_path / "m.tsv"
        fileio.write_matrix(path, m, delimiter="\t")
        assert np.array_equal(fileio.read_matrix(path, delimiter="\t"), m)

    def test_header_skipping(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        m = fileio.read_matrix(path, header=True)
        assert np.array_equal(m, [[1, 2], [3, 4]])

    def test_parse_error_mentions_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(InvalidInput, match="bad.csv"):
            fileio.read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput):
            fileio.read_matrix(tmp_path / "absent.csv")

    def test_single_row_kept_2d(self, tmp_path):
        path = tmp_path / "row.csv"
        fileio.write_matrix(path, np.array([[1.0, 2.0, 3.0]]))
        assert fileio.read_matrix(path).shape == (1, 3)

    def test_embedding_round_trip_with_index_column(self, tmp_path):
        z = np.random.default_rng(2).standard_normal((6, 3))
        path = tmp_path / "z.csv"
        fileio.write_embedding(path, z)
        assert path.read_text().splitlines()[0].startswith("0,")
        assert np.array_equal(fileio.read_embedding(path), z)

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_embedding_matches_row_writer(self, tmp_path, delimiter):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((9, 3)) * np.exp(rng.uniform(-700, 700, (9, 3)))
        z.flat[:6] = [0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e-300]
        path = tmp_path / "z.csv"
        fileio.write_embedding(path, z, delimiter=delimiter)
        expect = "".join(delimiter.join([str(i)] + [fileio.FLOAT_FMT % v for v in row]) + "\n"
                         for i, row in enumerate(z))
        assert path.read_text() == expect

    def test_embedding_reader_rejects_plain_matrix(self, tmp_path):
        path = tmp_path / "z.csv"
        fileio.write_matrix(path, np.random.default_rng(3).standard_normal((4, 2)))
        with pytest.raises(InvalidInput, match="row-index"):
            fileio.read_embedding(path)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        edges = [(0, 1, 1.0), (1, 2, 0.5), (0, 3, 2.25)]
        path = tmp_path / "g.txt"
        fileio.write_edge_list(path, edges)
        back, n = fileio.read_edge_list(path)
        assert back == edges
        assert n == 4

    def test_default_weight_and_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n\n1 2 3.5\n")
        edges, n = fileio.read_edge_list(path)
        assert edges == [(0, 1, 1.0), (1, 2, 3.5)]
        assert n == 3

    def test_bad_line_number_reported(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nnot an edge line at all\n")
        with pytest.raises(InvalidInput, match=":2"):
            fileio.read_edge_list(path)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(InvalidInput):
            fileio.read_edge_list(path)


class TestCouplingTriplets:
    def test_round_trip_with_shape(self, tmp_path):
        p = np.zeros((3, 4))
        p[0, 1] = 0.5
        p[2, 3] = 0.25
        path = tmp_path / "p.txt"
        fileio.write_coupling_triplets(path, p)
        assert np.array_equal(fileio.read_coupling_triplets(path), p)

    def test_drops_tiny_entries(self, tmp_path):
        p = np.array([[1e-15, 0.5], [0.5, 1e-13]])
        path = tmp_path / "p.txt"
        fileio.write_coupling_triplets(path, p)
        back = fileio.read_coupling_triplets(path)
        assert back[0, 0] == 0.0
        assert back[1, 1] == 0.0
        assert back[0, 1] == 0.5

    def test_matches_entry_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        p = rng.random((6, 4)) * np.exp(rng.uniform(-30, 30, (6, 4)))
        p[rng.random(p.shape) < 0.3] = 0.0
        path = tmp_path / "p.txt"
        fileio.write_coupling_triplets(path, p)
        expect = "# 6 4\n" + "".join(f"{i} {j} {fileio.FLOAT_FMT % p[i, j]}\n"
                                      for i, j in zip(*np.nonzero(p >= fileio.SPARSE_DROP)))
        assert path.read_text() == expect

    def test_repeated_entry_keeps_last_value(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# 2 2\n0 1 0.5\n1 0 0.75\n0 1 0.25\n")
        assert fileio.read_coupling_triplets(path).tolist() == [[0.0, 0.25], [0.75, 0.0]]

    def test_shape_inferred_without_header(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 2 0.5\n1 0 0.5\n")
        assert fileio.read_coupling_triplets(path).shape == (2, 3)

    @pytest.mark.parametrize("line", ["-1 1 0.5", "1 -1 0.5", "2 0 0.5", "0 2 0.5", "5 1 0.5"])
    def test_index_outside_header_shape_rejected(self, tmp_path, line):
        path = tmp_path / "p.txt"
        path.write_text(f"# 2 2\n0 0 0.5\n{line}\n")
        with pytest.raises(InvalidInput, match=r"p\.txt:3: index .* outside the 2x2"):
            fileio.read_coupling_triplets(path)

    def test_negative_index_rejected_without_header(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0 0.5\n-1 1 0.5\n")
        with pytest.raises(InvalidInput, match=r"p\.txt:2: index \(-1, 1\)"):
            fileio.read_coupling_triplets(path)

    @pytest.mark.parametrize("text,lineno", [("# 2 2\n1 x 0.5\n", 2),
                                             ("# 2 2\n0 1 half\n", 2),
                                             ("0 1 0.5\n0 1\n", 2),
                                             ("# 2 two\n0 1 0.5\n", 1),
                                             ("# -2 2\n", 1)])
    def test_malformed_line_named(self, tmp_path, text, lineno):
        path = tmp_path / "p.txt"
        path.write_text(text)
        with pytest.raises(InvalidInput, match=rf"p\.txt:{lineno}: "):
            fileio.read_coupling_triplets(path)


class TestLabelsAndTrace:
    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 2])
        path = tmp_path / "labels.csv"
        fileio.write_labels(path, labels)
        assert np.array_equal(fileio.read_labels(path), labels)

    def test_trace_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        fileio.write_trace(path, [{"iter": 0, "stress": 1.5}, {"iter": 1, "stress": 0.5}])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert '"iter": 0' in lines[0]

    def test_json_atomic_write(self, tmp_path):
        path = tmp_path / "doc.json"
        fileio.write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert not (tmp_path / "doc.json.tmp").exists()

    def test_sha256_stable(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"hello")
        assert fileio.sha256_file(path) == (
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        )

    def test_sha256_bytes_matches_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"hello")
        assert fileio.sha256_bytes(path.read_bytes()) == fileio.sha256_file(path)


class TestCompressedInputs:
    """Every reader decompresses .gz/.bz2/.xz, whether it reads the file or is given its bytes."""

    @pytest.mark.parametrize("suffix, compress", [
        (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
    ])
    def test_readers_decompress_by_suffix(self, tmp_path, suffix, compress):
        m = np.random.default_rng(4).standard_normal((5, 3))
        plain = tmp_path / "m.csv"
        fileio.write_matrix(plain, m)
        packed = tmp_path / ("m.csv" + suffix)
        packed.write_bytes(compress(plain.read_bytes()))
        labels = tmp_path / ("l.csv" + suffix)
        labels.write_bytes(compress(b"0\n2\n1\n"))
        edges = tmp_path / ("e.txt" + suffix)
        edges.write_bytes(compress(b"0 1\n1 2 0.5\n"))
        for data in (None, "bytes"):
            def given(path):
                return None if data is None else fileio.read_bytes(path)
            assert np.array_equal(fileio.read_matrix(packed, data=given(packed)), m)
            assert np.array_equal(fileio.read_labels(labels, data=given(labels)), [0, 2, 1])
            assert fileio.read_edge_list(edges, data=given(edges)) == (
                [(0, 1, 1.0), (1, 2, 0.5)], 3)
        # the hash is that of the bytes on disk
        assert fileio.sha256_file(packed) == fileio.sha256_bytes(packed.read_bytes())

    def test_corrupt_archive_is_invalid_input(self, tmp_path):
        path = tmp_path / "m.csv.gz"
        path.write_bytes(b"1,2\n3,4\n")
        with pytest.raises(InvalidInput, match="m.csv.gz"):
            fileio.read_matrix(path)
