"""State-coverage audit: the PR 7 bug class, caught statically.

``BaseCore.state_fingerprint()`` must hash exactly what ``snapshot()``
captures and ``restore()`` round-trips.  PR 7 fixed OoO pointer latches
that escaped this contract -- run-varying state that snapshots silently
dropped, so restored replays diverged from straight-line execution only
under fault injection.

This rule cross-references every run-varying attribute of a ``BaseCore``
subclass (or any class that defines both capture and fingerprint methods,
which covers the state classes in ``microarch/state.py`` and
``microarch/memory.py``) against the attribute names consumed by the
snapshot/restore/fingerprint method trio, merged across the class's
ancestors where those are visible in the audited project.

An attribute counts as *run-varying* when it is stored, augmented,
subscript-assigned, or hit with a known mutator method anywhere outside
``__init__``/``__post_init__`` and the trio itself: state that only
``__init__`` creates and nothing mutates is configuration, not state.
Deliberate exclusions (e.g. ``BaseCore._program``: snapshots intentionally
do not embed the program) carry a reasoned suppression at the declaration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.findings import Finding, SourceModule
from repro.devtools.rules import Project, Rule, register, tail_name

CAPTURE_METHODS = frozenset({
    "snapshot", "_snapshot_microarchitecture", "serialize", "snapshot_words",
})
RESTORE_METHODS = frozenset({
    "restore", "_restore_microarchitecture", "deserialize", "restore_words",
})
FINGERPRINT_METHODS = frozenset({
    "state_fingerprint", "_fingerprint_microarchitecture",
    "fingerprint_digest",
})
_TRIO_METHODS = CAPTURE_METHODS | RESTORE_METHODS | FINGERPRINT_METHODS
_DECL_METHODS = frozenset({"__init__", "__post_init__"})
_ROOT_BASE_NAMES = frozenset({"BaseCore"})

_MUTATOR_METHODS = frozenset({
    # generic container mutators
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "clear", "remove", "discard", "setdefault", "sort", "reverse", "write",
    # repo-specific state mutators (latches, registers, memory)
    "reset", "store_word", "store_byte", "restore_words", "restore",
    "deserialize", "clear_unit", "set", "flip_bit", "flip_flat",
})


@dataclass
class _ClassInfo:
    module: SourceModule
    node: ast.ClassDef
    base_names: tuple[str, ...]
    # attr -> line of the declaration (first store in __init__/class body)
    declared: dict[str, int] = field(default_factory=dict)
    # attr -> line of the first run-varying store/mutation
    run_varying: dict[str, int] = field(default_factory=dict)
    # method name -> set of self-attributes the method touches (load or store)
    method_attrs: dict[str, set[str]] = field(default_factory=dict)
    # method name -> attr -> line of the first touch (finding anchors)
    method_attr_lines: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


def _self_attr_events(method: ast.AST) -> Iterable[tuple[str, bool, int]]:
    """Yield ``(attr, is_mutation, line)`` for every ``self.<attr>`` touch."""
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            is_store = isinstance(node.ctx, (ast.Store, ast.Del))
            yield node.attr, is_store, node.lineno
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == "self":
            yield node.value.attr, True, node.lineno
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Attribute) \
                and isinstance(node.func.value.value, ast.Name) \
                and node.func.value.value.id == "self":
            yield node.func.value.attr, True, node.lineno


def _collect_class(module: SourceModule, node: ast.ClassDef) -> _ClassInfo:
    bases = tuple(name for name in (tail_name(base) for base in node.bases)
                  if name)
    info = _ClassInfo(module=module, node=node, base_names=bases)
    for stmt in node.body:
        for target_name in _class_body_targets(stmt):
            info.declared.setdefault(target_name, stmt.lineno)
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        touched = info.method_attrs.setdefault(stmt.name, set())
        lines = info.method_attr_lines.setdefault(stmt.name, {})
        for attr, is_mutation, line in _self_attr_events(stmt):
            touched.add(attr)
            lines.setdefault(attr, line)
            if not is_mutation:
                continue
            if stmt.name in _DECL_METHODS:
                info.declared.setdefault(attr, line)
            elif stmt.name not in _TRIO_METHODS:
                info.run_varying.setdefault(attr, line)
    return info


def _class_body_targets(stmt: ast.stmt) -> Iterable[str]:
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id


@register
class StateCoverageRule(Rule):
    """Run-varying core state must be snapshot, restored, and fingerprinted."""

    rule_id = "state-coverage"
    summary = ("every run-varying attribute of a BaseCore subclass or "
               "snapshot-bearing state class must appear in the "
               "snapshot/restore/fingerprint method trio")

    def check(self, project: Project) -> Iterable[Finding]:
        classes: list[_ClassInfo] = []
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes.append(_collect_class(module, node))
        # Last definition wins on a name collision, matching import shadowing
        # closely enough for ancestor lookup.
        by_name = {info.name: info for info in classes}

        core_family = set(_ROOT_BASE_NAMES)
        changed = True
        while changed:
            changed = False
            for info in classes:
                if info.name in core_family:
                    continue
                if any(base in core_family for base in info.base_names):
                    core_family.add(info.name)
                    changed = True

        for info in classes:
            if info.name in core_family and info.name not in _ROOT_BASE_NAMES:
                yield from self._check_class(info, by_name)
            elif self._defines_contract(info):
                yield from self._check_class(info, by_name)
            elif info.name in _ROOT_BASE_NAMES:
                yield from self._check_class(info, by_name)

    def _defines_contract(self, info: _ClassInfo) -> bool:
        methods = set(info.method_attrs)
        return bool(methods & FINGERPRINT_METHODS) \
            and bool(methods & CAPTURE_METHODS)

    def _check_class(self, info: _ClassInfo,
                     by_name: dict[str, _ClassInfo]) -> Iterable[Finding]:
        hierarchy = self._hierarchy(info, by_name)
        if not any(set(ancestor.method_attrs) & _TRIO_METHODS
                   for ancestor in hierarchy):
            # No contract anywhere in the visible hierarchy (e.g. a helper
            # subclass in a partial audit); nothing to cross-reference.
            return
        captured, restored, fingerprinted = self._merged_trio(hierarchy)
        for attr, line in sorted(info.run_varying.items(),
                                 key=lambda item: (item[1], item[0])):
            missing = [label for label, names in (
                ("capture", captured), ("restore", restored),
                ("fingerprint", fingerprinted)) if attr not in names]
            if not missing:
                continue
            anchor = info.declared.get(attr, line)
            yield info.module.finding(
                anchor, self.rule_id,
                f"run-varying state {info.name}.{attr} is missing from the "
                f"{'/'.join(missing)} side of the snapshot/restore/"
                "fingerprint contract; divergence will survive restore "
                "undetected (see BaseCore.snapshot docs)")

    def _merged_trio(self, hierarchy: list[_ClassInfo]
                     ) -> tuple[set[str], set[str], set[str]]:
        captured: set[str] = set()
        restored: set[str] = set()
        fingerprinted: set[str] = set()
        for ancestor in hierarchy:
            for method, attrs in ancestor.method_attrs.items():
                if method in CAPTURE_METHODS:
                    captured.update(attrs)
                if method in RESTORE_METHODS:
                    restored.update(attrs)
                if method in FINGERPRINT_METHODS:
                    fingerprinted.update(attrs)
        return captured, restored, fingerprinted

    def _hierarchy(self, info: _ClassInfo,
                   by_name: dict[str, _ClassInfo]) -> list[_ClassInfo]:
        seen: set[str] = set()
        ordered: list[_ClassInfo] = []
        stack = [info]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            ordered.append(current)
            for base in current.base_names:
                parent = by_name.get(base)
                if parent is not None:
                    stack.append(parent)
        return ordered
