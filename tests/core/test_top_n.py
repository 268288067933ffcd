"""The single top-N selector on tie-heavy inputs.

Pins the contract :func:`~repro.core.base.top_n_positions` documents:
the selected set dominates everything left out, the selection is ordered
by (score desc, index asc), and the 1-D list form agrees with the 2-D
block form row by row.  Which of several items tied at the cutoff make
the cut is ``np.argpartition``'s choice and is deliberately not pinned.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.base import top_n_from_vector, top_n_positions


@st.composite
def tie_heavy_blocks(draw):
    """Blocks over few distinct values: most rows tie at the cutoff."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 40))
    values = st.sampled_from([0.0, -1.0, 0.5, 1.0, 2.5])
    return draw(arrays(np.float64, (rows, cols), elements=values))


@given(block=tie_heavy_blocks(), n=st.integers(1, 45))
@settings(max_examples=300, deadline=None)
def test_selection_dominates_and_is_ordered(block, n):
    ranked = top_n_positions(block, n)
    assert ranked.shape == (block.shape[0], min(n, block.shape[1]))
    for row, positions in zip(block, ranked):
        assert len(set(positions.tolist())) == len(positions)
        selected = row[positions]
        left_out = np.delete(row, positions)
        if left_out.size and selected.size:
            assert selected.min() >= left_out.max()
        keys = [(-row[p], p) for p in positions]
        assert keys == sorted(keys)


@given(block=tie_heavy_blocks(), n=st.integers(1, 45))
@settings(max_examples=300, deadline=None)
def test_vector_form_equals_block_form_row_by_row(block, n):
    ranked = top_n_positions(block, n)
    items = [f"item-{i}" for i in range(block.shape[1])]
    for row, positions in zip(block, ranked):
        result = top_n_from_vector("u", items, row, n)
        assert result.item_ids() == [items[p] for p in positions]
        assert [e.utility for e in result.items] == row[positions].tolist()


def test_limit_at_or_above_the_width_ranks_everything():
    block = np.array([[1.0, 3.0, 3.0, 0.0]])
    assert top_n_positions(block, 4).tolist() == [[1, 2, 0, 3]]
    assert top_n_positions(block, 9).tolist() == [[1, 2, 0, 3]]
    assert top_n_positions(np.zeros((2, 0)), 3).shape == (2, 0)
