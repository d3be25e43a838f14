# audit: fixture
"""Known-bad input for the auditor: a latch name formatted per access.

Lives under a ``microarch/`` path segment because the rule is scoped to the
core models.
"""


class Core:
    def valid(self, index):
        return self.latches.get(f"rob.e{index:02d}.valid")
