"""Hot-path lint: no formatted latch names in the core models.

The cores resolve every latch they touch to an integer slot when they are
built (:meth:`~repro.microarch.state.LatchState.slot`) and index
:attr:`~repro.microarch.state.LatchState.values` by that slot every cycle.
A name formatted per access, such as ``latches.get(f"rob.e{i:02d}.valid")``,
costs a string build plus a dict lookup on every call; before the slot
tables this was most of the out-of-order core's run time.  The
``formatted-latch-name`` rule keeps that pattern out of ``microarch/``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.findings import Finding, SourceModule
from repro.devtools.rules import Project, Rule, register, tail_name

_NAME_ACCESSORS = frozenset({"get", "set", "get_signed"})
_LATCH_RECEIVERS = frozenset({"latches", "_latches"})


def _name_argument(node: ast.Call) -> ast.expr | None:
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _is_formatted(node: ast.expr) -> bool:
    """An f-string, or a ``"...".format(...)`` call."""
    if isinstance(node, ast.JoinedStr):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format")


@register
class FormattedLatchNameRule(Rule):
    """Core models address latches by slot, not by a per-access name."""

    rule_id = "formatted-latch-name"
    summary = ("latches.get/set/get_signed under microarch/ with a formatted "
               "name builds and looks up a string per access; resolve the "
               "slot once (LatchState.slot) and index LatchState.values by "
               "slot")

    def check_module(self, module: SourceModule,
                     project: Project) -> Iterable[Finding]:
        if "microarch" not in module.parts:
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _NAME_ACCESSORS
                    and tail_name(node.func.value) in _LATCH_RECEIVERS):
                continue
            name = _name_argument(node)
            if name is not None and _is_formatted(name):
                yield module.finding(
                    node, self.rule_id,
                    f"latches.{node.func.attr}() with a formatted latch name "
                    "builds and looks up a string on every access; resolve "
                    "the slot at construction and index latches.values")
