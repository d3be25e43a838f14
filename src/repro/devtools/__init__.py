"""Repo-specific static analysis enforcing the bit-exactness contract.

Every accelerator in this repro (checkpointing, convergence gating, batched
lockstep replay, the persistent artifact store) is only admissible because
outcomes stay bit-identical to the legacy path.  Three past PRs fixed
determinism bugs that tests caught only by luck: hash-randomized RNG seeding,
shard-completion order leaking into frontier labels, and OoO pointer latches
that escaped the snapshot/fingerprint contract.  The auditor encodes those
invariants as AST rules (stdlib ``ast`` only, no new dependencies) so they
are enforced mechanically:

* ``repro.devtools.determinism`` -- determinism lints (builtin ``hash()``,
  unsorted set/filesystem iteration, unseeded RNGs, wall-clock reads,
  mutable defaults, module-level mutable state in worker-shipped modules).
* ``repro.devtools.state_coverage`` -- every run-varying attribute of a
  ``BaseCore`` subclass or microarchitectural state class must be covered
  by the snapshot/restore/fingerprint trio.
* ``repro.devtools.concurrency`` -- payloads dispatched through the
  executor layer must be picklable by construction, and result folds must
  be indexed by shard order, not completion order.
* ``repro.devtools.latch_names`` -- the core models address latches by
  precomputed slot, never by a name formatted on every access.

Run it with ``python -m repro.devtools.audit src tests benchmarks`` (or the
``clear-audit`` console script); findings are suppressed per line with
``# audit: allow[rule-id] reason``.
"""

from __future__ import annotations

from repro.devtools.findings import Finding
from repro.devtools.rules import RULES, Rule, rule_ids

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "audit_paths",
    "audit_source",
    "main",
    "rule_ids",
]

_AUDIT_EXPORTS = ("audit_paths", "audit_source", "main", "rule_table")


def __getattr__(name: str):
    # Lazy: importing repro.devtools.audit here would shadow the
    # ``python -m repro.devtools.audit`` entry under runpy.
    if name in _AUDIT_EXPORTS:
        from repro.devtools import audit
        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
