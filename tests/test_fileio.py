import pytest

from circm import Complex, build_chain_complex, circulant, independence_complex
from circm.fileio import (
    read_edges_v1,
    read_facets_v1,
    write_edges_v1,
    write_facets_v1,
    write_smat_v1,
)


class TestEdgesFormat:
    def test_round_trip(self):
        g = circulant(7, [1, 2])
        h = read_edges_v1(write_edges_v1(g))
        assert h.vertex_count == g.vertex_count
        assert h.edges() == g.edges()

    def test_header(self):
        text = write_edges_v1(circulant(3, [1]))
        lines = text.strip().splitlines()
        assert lines[0] == "n 3"
        assert lines[1:] == ["1 2", "1 3", "2 3"]

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_edges_v1("vertices 3\n1 2\n")

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            read_edges_v1("n 3\n1 4\n")

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            read_edges_v1("n 3\n2 2\n")


class TestFacetsFormat:
    def test_round_trip(self):
        c = independence_complex(circulant(8, [1, 2]))
        d = read_facets_v1(write_facets_v1(c))
        assert d.vertex_count == c.vertex_count
        assert d.facets == c.facets

    def test_round_trip_empty_complex(self):
        c = Complex.from_facets(0, [[]])
        d = read_facets_v1(write_facets_v1(c))
        assert d.facets == frozenset({frozenset()})

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            read_facets_v1("n 3\n1\n1 2\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_facets_v1("vertices 1\n1\n")


class TestSmatFormat:
    def test_triangle_boundary(self):
        c = Complex.from_facets(3, [[1, 2, 3]])
        data = build_chain_complex(c)
        text = write_smat_v1(data.boundaries[1], rows=data.face_count(0))
        lines = text.strip().splitlines()
        rows, cols = map(int, lines[0].split())
        assert (rows, cols) == (3, 3)
        # each column of the 1-boundary holds one +1 and one -1, 1-based
        assert len(lines) - 1 == 6
        for line in lines[1:]:
            r, cidx, v = map(int, line.split())
            assert 1 <= r <= rows and 1 <= cidx <= cols
            assert v in (-1, 1)
