import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesub.graph_io import (
    ParseError,
    from_graph6,
    read_graph,
    to_graph6,
    write_graph,
)
from cliquesub.graphs import gen_gnp, new_graph
from conftest import (
    complete,
    cycle,
    random_graph,
    reference_from_graph6,
    reference_to_graph6,
)


class TestGraph6:
    def test_spec_string_decodes_to_star(self):
        g = from_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_spec_string_round_trips_byte_identically(self):
        assert to_graph6(from_graph6("D?{")) == "D?{"

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<D?{").n == 5

    def test_round_trip_random(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 20))
            assert from_graph6(to_graph6(g)) == g

    def test_large_n_encoding(self):
        g = gen_gnp(80, 0.2, 4)
        assert from_graph6(to_graph6(g)) == g

    def test_truncated_body(self):
        with pytest.raises(ParseError, match="byte"):
            from_graph6("D?")

    def test_bad_size_byte(self):
        # size byte 62 would mean n = -1
        with pytest.raises(ParseError, match="size byte") as info:
            from_graph6(">??")
        assert info.value.byte == 0

    def test_non_ascii_is_parse_error(self):
        with pytest.raises(ParseError, match="non-ASCII") as info:
            from_graph6(">>graph6<<D\u00e9{")
        assert info.value.byte == 1

    def test_matches_reference_codec(self, rng):
        graphs = [random_graph(rng, n) for n in range(71)]
        # the size field grows from 1 to 4 bytes at n = 63
        graphs += [gen_gnp(n, p, n) for n in (62, 63) for p in (0.0, 0.5, 1.0)]
        # the mirror works in 8 x 8 bit blocks and the encoder unpacks 128
        # rows at a time; 1001 is a multiple of neither 6 nor 8
        graphs += [gen_gnp(n, 0.5, n) for n in (7, 8, 9, 65, 255, 256, 257, 513, 1001)]
        residues = {g.n * (g.n - 1) // 2 % 6 for g in graphs}
        # triangular numbers mod 6 take only these values
        assert residues == {n * (n - 1) // 2 % 6 for n in range(12)} == {0, 1, 3, 4}
        for g in graphs:
            text = to_graph6(g)
            assert text == reference_to_graph6(g)
            assert from_graph6(text) == reference_from_graph6(text) == g
            assert from_graph6(">>graph6<<" + text + "\n") == g

    def test_matches_reference_codec_at_n2000(self):
        g = gen_gnp(2000, 0.95, 0)
        text = to_graph6(g)
        assert g._mat is None  # encoding leaves the matrix cache empty
        assert text == reference_to_graph6(g)
        assert from_graph6(text) == reference_from_graph6(text) == g

    # "D?A" sets only the first padding bit, bit npairs = 10
    @pytest.mark.parametrize("text", ["D?", "D ?{", "D?\x7f", "D\x7f{", "D?|", "D?A", "~??~"])
    def test_errors_match_reference_codec(self, text):
        with pytest.raises(ParseError) as ref:
            reference_from_graph6(text)
        with pytest.raises(ParseError) as got:
            from_graph6(text)
        assert (str(got.value), got.value.byte) == (str(ref.value), ref.value.byte)

    @given(st.integers(0, 17), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, rnd):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rnd.random() < 0.4
        ]
        g = new_graph(n, edges)
        text = to_graph6(g)
        assert from_graph6(text) == g
        assert to_graph6(from_graph6(text)) == text

    def test_decode_frees_the_bit_string_before_the_mirror(self):
        n = 1000
        text = to_graph6(gen_gnp(n, 0.95, 0))
        tracemalloc.start()
        try:
            from_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # matrix n^2 and bit string n^2/2 at the row loop; holding the bit
        # string through the mirror and packing read 2.04 n^2
        assert peak < 1.85 * n * n

    def test_decode_holds_no_matrix(self):
        n = 2000
        text = to_graph6(gen_gnp(n, 0.95, 0))
        tracemalloc.start()
        try:
            from_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # bit string n^2/2, packed rows n^2/8 and a block of rows, about
        # 0.75 n^2; filling a whole n x n matrix read 1.75 n^2
        assert peak < 1.0 * n * n

    def test_encode_holds_no_matrix(self):
        n = 2000
        g = gen_gnp(n, 0.95, 0)
        tracemalloc.start()
        try:
            to_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pair bits n^2/2 and a block of unpacked rows, about 0.63 n^2;
        # joining one unpacked column per vertex read 1.31 n^2
        assert peak < 0.8 * n * n


class TestEdgeList:
    def test_basic_parse_with_declared_n(self):
        g = read_graph(io.StringIO("0 1\n1 2\n"), "edge-list")
        assert g.n == 3 and sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_header(self):
        g = read_graph(io.StringIO("n 5\n0 1\n"), "edge-list")
        assert g.n == 5 and g.m == 1

    def test_empty_with_n0_header(self):
        g = read_graph(io.StringIO("n 0\n"), "edge-list")
        assert g.n == 0 and g.m == 0

    def test_round_trip(self, rng, tmp_path):
        for k in range(50):
            g = random_graph(rng, rng.randint(0, 15))
            p = tmp_path / f"g{k}.txt"
            write_graph(g, p, "edge-list")
            assert read_graph(p, "edge-list") == g

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError, match="line 2"):
            read_graph(io.StringIO("0 1\nzap\n"), "edge-list")

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            read_graph(io.StringIO("2 2\n"), "edge-list")

    def test_endpoint_beyond_header(self):
        with pytest.raises(ParseError, match="exceeds"):
            read_graph(io.StringIO("n 2\n0 5\n"), "edge-list")

    def test_header_agreeing_with_caller_reads(self):
        g = read_graph(io.StringIO("# n first\nn 5\n0 1\n"), "edge-list")
        assert g.n == 5 and sorted(g.edges()) == [(0, 1)]

    def test_second_header_rejected(self):
        with pytest.raises(ParseError) as info:
            read_graph(io.StringIO("n 3\nn 4\n0 1\n"), "edge-list")
        assert str(info.value) == "second header line (line 2)"
        assert info.value.line == 2

    def test_negative_header_is_bad_vertex_count(self):
        with pytest.raises(ParseError) as info:
            read_graph(io.StringIO("n -3\n"), "edge-list")
        assert str(info.value) == "bad vertex count '-3' (line 1)"
        assert info.value.line == 1

    def test_comments_and_blanks_ignored(self):
        g = read_graph(io.StringIO("# a comment\n\n0 1\n"), "edge-list")
        assert g.m == 1


class TestFileRoundTrips:
    def test_graph6_file(self, tmp_path):
        g = cycle(7)
        p = tmp_path / "c7.g6"
        write_graph(g, p, "graph6")
        assert read_graph(p, "graph6") == g

    def test_graph6_file_byte_identical(self, tmp_path):
        g = complete(9)
        p = tmp_path / "k9.g6"
        write_graph(g, p, "graph6")
        first = p.read_bytes()
        write_graph(read_graph(p, "graph6"), p, "graph6")
        assert p.read_bytes() == first

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            read_graph(io.StringIO(""), "dot")
