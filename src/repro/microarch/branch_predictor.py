"""A small bimodal branch predictor.

The predictor exists for micro-architectural fidelity: it contributes
flip-flops whose corruption never changes program correctness (only which
path is speculatively fetched), reproducing the paper's observation that a
substantial fraction of flip-flops -- branch predictor state among them --
only produce errors that vanish (Appendix A).
"""

from __future__ import annotations

from repro.microarch.state import LatchState


class BimodalPredictor:
    """2-bit saturating-counter bimodal predictor backed by latch state.

    The counter table and the global history register are registered as
    flip-flop structures by the owning core; this class only manipulates
    them through :attr:`LatchState.values` so injected flips are honoured.
    The update is branch-free in the latch values, so the same code trains
    a scalar core's ints and a lockstep wavefront's per-lane numpy columns.
    """

    def __init__(self, latches: LatchState, table_structure: str,
                 history_structure: str, entries: int):
        self._latches = latches
        self._table = latches.slot(table_structure)
        self._history = latches.slot(history_structure)
        self._table_mask = (
            1 << latches.registry.structure(table_structure).width) - 1
        self._history_mask = (
            1 << latches.registry.structure(history_structure).width) - 1
        self._entries = entries

    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome of the branch at ``pc``."""
        values = self._latches.values
        table = values[self._table]
        history = values[self._history]
        shift = 2 * (((pc >> 2) ^ history) % self._entries)
        counter = (table >> shift) & 0x3
        if taken:
            counter = counter + (counter < 3)
        else:
            counter = counter - (counter > 0)
        # The cleared-field mask is non-negative: ANDing a uint64 column
        # with a negative int (``~(0x3 << shift)``) raises under NumPy 2.
        values[self._table] = ((table & (self._table_mask ^ (0x3 << shift)))
                               | (counter << shift))
        values[self._history] = ((history << 1) | taken) & self._history_mask
