"""The bounded search over covering windows, kept as a test oracle.

``rep_type.classify`` reads the representation type off a table, and
``rep_type.wildness_witness`` certifies each wild pair by a stored vector.
``search_windows`` is the bounded sanity check behind the finite and tame
entries: the minimum of the Tits form over every window of a few rows and
every 0-lift alignment, each minimized by ``rep_type.min_tits_over_box``.
"""

from __future__ import annotations

from nilquiver import CoveringWindow, min_tits_over_box


def search_windows(ell: int, x: int, max_rows: int, max_entry: int) -> int:
    """Minimum Tits value over all windows with at most max_rows rows.

    All 0-lift alignments are tried.
    """
    if ell < 1 or max_rows < 1:
        raise ValueError("ell and max_rows must be positive")
    # offset <= rows keeps at least one framing row in the window
    windows = (
        CoveringWindow(ell, x, rows, tuple(range(offset, rows + 1, ell)))
        for rows in range(1, max_rows + 1)
        for offset in range(1, min(ell, rows) + 1)
    )
    return min(min_tits_over_box(window, max_entry) for window in windows)
