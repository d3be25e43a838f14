"""Concurrency-contract audit for the executor layer.

``engine/executors.py`` ships shard functions and payloads to worker
processes by pickling, and the engine's bit-exactness contract requires
every result fold to be ordered by shard index (PR 4 fixed frontier labels
that leaked shard-completion order).  Two rules keep both properties:

* ``unpicklable-dispatch`` -- arguments handed to ``.stream(...)`` /
  ``.submit(...)`` must be picklable by construction: no lambdas, no
  functions defined inside the calling function, no bound methods of
  stateful objects.  Module-level functions are the contract
  (``ShardFunction`` in ``engine/executors.py``).
* ``completion-order-fold`` -- a ``for`` loop directly over
  ``.stream(...)`` observes completion order; its
  body must consume ``<result>.index`` (indexed fold into a preallocated
  slot table, or an explicit sort) or carry a reasoned suppression.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.findings import Finding, SourceModule
from repro.devtools.rules import (Project, Rule, enclosing_functions,
                                  register, tail_name)

_DISPATCH_ATTRS = frozenset({"stream", "submit"})


@register
class UnpicklableDispatchRule(Rule):
    """Executor dispatch only takes picklable-by-construction callables."""

    rule_id = "unpicklable-dispatch"
    summary = ("lambdas, closures, and bound methods cannot be pickled to "
               "worker processes; dispatch module-level functions "
               "(ShardFunction) through the executor layer")

    def check_module(self, module: SourceModule,
                     project: Project) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DISPATCH_ATTRS):
                continue
            local_defs = self._locally_defined(module, node)
            arguments = list(node.args)
            arguments.extend(keyword.value for keyword in node.keywords)
            for argument in arguments:
                finding = self._bad_argument(module, node, argument,
                                             local_defs)
                if finding is not None:
                    yield finding

    def _bad_argument(self, module: SourceModule, call: ast.Call,
                      argument: ast.AST,
                      local_defs: set[str]) -> Finding | None:
        dispatch = call.func.attr  # type: ignore[union-attr]
        if isinstance(argument, ast.Lambda):
            return module.finding(
                argument, self.rule_id,
                f"lambda passed to .{dispatch}() cannot be pickled to "
                "worker processes; use a module-level function")
        if isinstance(argument, ast.Name) and argument.id in local_defs:
            return module.finding(
                argument, self.rule_id,
                f"{argument.id!r} is defined inside the calling function; "
                f"closures passed to .{dispatch}() cannot be pickled to "
                "worker processes -- move it to module level")
        if isinstance(argument, ast.Attribute) \
                and isinstance(argument.value, ast.Name) \
                and argument.value.id == "self":
            return module.finding(
                argument, self.rule_id,
                f"bound method self.{argument.attr} passed to .{dispatch}() "
                "drags its whole instance through pickle; use a "
                "module-level function taking the payload explicitly")
        return None

    def _locally_defined(self, module: SourceModule,
                         call: ast.Call) -> set[str]:
        names: set[str] = set()
        for func in enclosing_functions(module, call):
            for node in ast.walk(func):
                if node is func:
                    continue
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Assign) \
                        and isinstance(node.value, ast.Lambda):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names


@register
class CompletionOrderFoldRule(Rule):
    """Result folds must be indexed by shard order, not completion order."""

    rule_id = "completion-order-fold"
    summary = ("loops over executor .stream() observe completion order; "
               "fold by <result>.index (slot table or sort) so outcomes "
               "stay order-independent")

    def check_module(self, module: SourceModule,
                     project: Project) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not (isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Attribute)
                    and node.iter.func.attr == "stream"):
                continue
            targets = self._target_names(node.target)
            if not targets:
                continue
            if self._body_uses_index(node, targets):
                continue
            yield module.finding(
                node, self.rule_id,
                "loop over .stream() observes shard completion order and "
                "its body never reads the result's .index; fold into an "
                "index-keyed slot table (or sort) so the outcome cannot "
                "depend on worker scheduling")

    def _target_names(self, target: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
        return names

    def _body_uses_index(self, loop: ast.For | ast.AsyncFor,
                         targets: set[str]) -> bool:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr == "index" \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in targets:
                    return True
        return False
