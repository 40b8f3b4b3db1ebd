"""The stacked Gram-Schmidt frame on random symmetric stacks: each row is
bit for bit the single-matrix frame of ``oracles``, and the frame turns
its matrix into the signature diagonal."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from oracles import frame_of_matrix_at  # noqa: E402
from warpfield.curvature import frame_of_matrix  # noqa: E402


@st.composite
def symmetric_stacks(draw):
    """(S, d, d) stacks L D L^T with L unit lower triangular and D of mixed
    signs, |D| >= 0.5: the k-th leading principal minor is the product of
    the first k entries of D, so every one is bounded away from 0."""
    d = draw(st.integers(1, 4))
    s = draw(st.integers(1, 6))
    lower = draw(hnp.arrays(float, (s, d, d), elements=st.floats(-2.0, 2.0)))
    sizes = draw(hnp.arrays(float, (s, d), elements=st.floats(0.5, 3.0)))
    positive = draw(hnp.arrays(bool, (s, d)))
    unit = np.tril(lower, -1) + np.eye(d)
    diag = np.where(positive, sizes, -sizes)
    g = unit @ (diag[:, :, None] * np.swapaxes(unit, 1, 2))
    return 0.5 * (g + np.swapaxes(g, 1, 2))


@settings(max_examples=300, deadline=None)
@given(symmetric_stacks())
def test_rows_are_the_single_matrix_frame(g):
    frame, eps = frame_of_matrix(g)
    for k in range(len(g)):
        want_frame, want_eps = frame_of_matrix_at(g[k])
        assert np.array_equal(frame[k], want_frame)
        assert np.array_equal(eps[k], want_eps)
    d = g.shape[-1]
    np.testing.assert_allclose(frame @ g @ np.swapaxes(frame, 1, 2),
                               eps[:, :, None] * np.eye(d), rtol=0, atol=1e-9)
