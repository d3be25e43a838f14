# audit: fixture
"""Known-bad input for the auditor: core state that outlives reset.

``_redirect`` is snapshot, restored and fingerprinted, but the reset path
never assigns it, so a reused core starts each run with the previous run's
value and fingerprints what it ran before.
"""


class StickyCore(BaseCore):  # noqa: F821 - resolved structurally by the rule
    def __init__(self):
        super().__init__()
        self.registers = [0]
        self._redirect = 0

    def _reset_microarchitecture(self, program):
        self.registers = [0]

    def _advance(self, stop):
        self.registers[0] += 1
        self._redirect += 4

    def _snapshot_microarchitecture(self):
        return {"registers": list(self.registers), "redirect": self._redirect}

    def _restore_microarchitecture(self, micro):
        self.registers = list(micro["registers"])
        self._redirect = micro["redirect"]

    def _fingerprint_microarchitecture(self):
        return (tuple(self.registers), self._redirect)
