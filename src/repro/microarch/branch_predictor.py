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
    them through :class:`LatchState` so injected flips are honoured.
    """

    def __init__(self, latches: LatchState, table_structure: str,
                 history_structure: str, entries: int):
        self._latches = latches
        self._table = latches.slot(table_structure)
        self._history = latches.slot(history_structure)
        self._history_mask = (
            1 << latches.registry.structure(history_structure).width) - 1
        self._entries = entries

    def _counter(self, index: int) -> int:
        table = self._latches.get_at(self._table)
        return (table >> (2 * index)) & 0x3

    def _set_counter(self, index: int, value: int) -> None:
        table = self._latches.get_at(self._table)
        table &= ~(0x3 << (2 * index))
        table |= (value & 0x3) << (2 * index)
        self._latches.set_at(self._table, table)

    def _index(self, pc: int) -> int:
        history = self._latches.get_at(self._history)
        return ((pc >> 2) ^ history) % self._entries

    def predict_taken(self, pc: int) -> bool:
        """Predict whether the branch at ``pc`` is taken."""
        return self._counter(self._index(pc)) >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome of the branch at ``pc``."""
        index = self._index(pc)
        counter = self._counter(index)
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._set_counter(index, counter)
        history = self._latches.get_at(self._history)
        history = ((history << 1) | (1 if taken else 0)) & self._history_mask
        self._latches.set_at(self._history, history)
