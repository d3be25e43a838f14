# audit: fixture
"""Known-bad input for the auditor: core state escaping the snapshot contract.

``_scratch`` mutates every cycle but never appears in the
snapshot/restore/fingerprint trio -- the PR 7 bug class.
"""


class LeakyCore(BaseCore):  # noqa: F821 - resolved structurally by the rule
    def __init__(self):
        super().__init__()
        self._scratch = []

    def _advance(self, stop):
        self._scratch.append(1)

    def _snapshot_microarchitecture(self):
        return {}

    def _restore_microarchitecture(self, micro):
        return None

    def _fingerprint_microarchitecture(self):
        return ()
