"""Auto-detection between the two text formats."""

from __future__ import annotations

import pytest
from hypothesis import given

from conftest import bit_matrices, hypergraphs
from hypercode import BitMatrix, Hypergraph, format_hypergraph, format_matrix
from hypercode.textformat import parse_text

BOTH = "the text is both a valid hypergraph and a valid matrix; choose one with --format"


def auto_or_both(text):
    try:
        return parse_text(text)
    except ValueError as exc:
        assert str(exc) == BOTH
        return None


@given(hypergraphs(max_vertices=10, max_edges=12, min_edges=0))
def test_a_hypergraph_text_is_never_read_as_a_matrix(hg):
    parsed = auto_or_both(format_hypergraph(hg))
    assert parsed is None or (type(parsed) is Hypergraph and parsed == hg)


@given(bit_matrices(max_rows=6, max_cols=8))
def test_a_matrix_text_is_never_read_as_a_hypergraph(m):
    parsed = auto_or_both(format_matrix(m))
    assert parsed is None or (type(parsed) is BitMatrix and parsed == m)


def test_a_named_format_reads_an_ambiguous_text():
    assert auto_or_both("1 1\n0\n") is None
    assert parse_text("1 1\n0\n", "hypergraph") == Hypergraph(1, ((0,),))
    assert parse_text("1 1\n0\n", "matrix") == BitMatrix(1, 1, (0,))


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError, match="^format must be one of"):
        parse_text("1 1\n0\n", "csv")
