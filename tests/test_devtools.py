"""The determinism/state-coverage auditor: rules, suppressions, CLI.

This tier is the enforcement point of the bit-exactness contract:
``test_full_tree_audit_is_clean`` asserts zero findings over
``src tests benchmarks``, so any new code that trips a rule fails the
suite exactly like CI's ``audit`` job.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools import RULES, audit_paths, audit_source, rule_ids
from repro.devtools.audit import collect_files, load_modules, main, rule_table
from repro.devtools.findings import scan_comments

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "devtools_fixtures"
AUDITED_PATHS = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]

# One known-bad fixture per rule; each must fire its rule exactly once and
# nothing else.
RULE_FIXTURES = {
    "builtin-hash": "bad_builtin_hash.py",
    "completion-order-fold": "bad_completion_order_fold.py",
    "formatted-latch-name": "microarch/bad_formatted_latch_name.py",
    "module-mutable-state": "engine/bad_module_state.py",
    "mutable-default": "bad_mutable_default.py",
    "state-coverage": "bad_state_coverage.py",
    "unpicklable-dispatch": "bad_unpicklable_dispatch.py",
    "unseeded-random": "bad_unseeded_random.py",
    "unsorted-iteration": "bad_unsorted_iteration.py",
    "wall-clock": "bad_wall_clock.py",
}


def audit_fixture(name: str, **kwargs):
    return audit_paths([FIXTURES / name], root=REPO_ROOT,
                       include_fixtures=True, **kwargs)


class TestTreeIsClean:
    def test_full_tree_audit_is_clean(self):
        findings = audit_paths(AUDITED_PATHS, root=REPO_ROOT)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_fixtures_are_skipped_by_directory_walks(self):
        # The known-bad fixtures live inside tests/ and would otherwise make
        # the tree audit fail; the '# audit: fixture' marker excludes them.
        assert audit_paths([FIXTURES], root=REPO_ROOT) == []

    def test_fixtures_are_audited_when_asked(self):
        findings = audit_paths([FIXTURES], root=REPO_ROOT,
                               include_fixtures=True)
        assert len(findings) >= len(RULE_FIXTURES)


class TestRuleFixtures:
    def test_every_rule_has_a_fixture(self):
        assert set(RULE_FIXTURES) == set(rule_ids())

    @pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
    def test_fixture_fires_exactly_once(self, rule_id, fixture):
        findings = audit_fixture(fixture)
        assert len(findings) == 1, "\n".join(f.format() for f in findings)
        finding = findings[0]
        assert finding.rule_id == rule_id
        assert finding.line > 1  # past the fixture marker
        assert fixture == Path(finding.path).relative_to(
            "tests/devtools_fixtures").as_posix()
        formatted = finding.format()
        assert rule_id in formatted
        assert f":{finding.line}:" in formatted

    @pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
    def test_select_isolates_one_rule(self, rule_id, fixture):
        assert len(audit_fixture(fixture, select=[rule_id])) == 1
        others = [other for other in rule_ids() if other != rule_id]
        assert audit_fixture(fixture, select=others) == []


class TestSuppressions:
    def test_reasoned_suppressions_silence_findings(self):
        assert audit_fixture("suppressed.py") == []

    def test_reasonless_and_unknown_suppressions_are_findings(self):
        findings = audit_fixture("bad_suppression.py")
        by_rule: dict[str, int] = {}
        for finding in findings:
            by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
        # Both malformed comments are reported, and neither silences the
        # wall-clock finding it decorates.
        assert by_rule == {"bad-suppression": 2, "wall-clock": 2}

    def test_clean_fixture_has_no_findings(self):
        assert audit_fixture("clean.py") == []

    def test_suppression_comment_in_string_literal_is_ignored(self):
        source = 'TEXT = "# audit: allow[wall-clock] not a comment"\n'
        suppressions, is_fixture = scan_comments(source)
        assert suppressions == [] and not is_fixture


class TestCli:
    def test_cli_exits_zero_on_clean_tree(self, capsys):
        status = main([str(path) for path in AUDITED_PATHS])
        captured = capsys.readouterr()
        assert status == 0
        assert "clean" in captured.err

    def test_cli_exits_nonzero_on_fixture_with_location(self, capsys):
        fixture = FIXTURES / "bad_builtin_hash.py"
        status = main([str(fixture), "--include-fixtures"])
        captured = capsys.readouterr()
        assert status == 1
        assert "builtin-hash" in captured.out
        assert "bad_builtin_hash.py" in captured.out
        # path:line:col prefix
        first = captured.out.splitlines()[0]
        assert first.count(":") >= 3

    def test_cli_explicit_fixture_path_needs_no_flag(self):
        # Naming a fixture file directly audits it even without
        # --include-fixtures; only directory walks skip fixtures.
        assert main([str(FIXTURES / "bad_wall_clock.py")]) == 1

    def test_cli_select_and_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in listed
        fixture = str(FIXTURES / "bad_wall_clock.py")
        assert main([fixture, "--select", "builtin-hash"]) == 0
        assert main([fixture, "--select", "wall-clock"]) == 1

    def test_cli_skips_missing_paths(self, capsys):
        status = main([str(FIXTURES / "clean.py"), "no-such-dir"])
        captured = capsys.readouterr()
        assert status == 0
        assert "skipping missing path" in captured.err

    def test_collect_files_is_sorted_and_deduplicated(self):
        once = collect_files([FIXTURES, FIXTURES / "clean.py"])
        assert [str(p) for p in once] == sorted(str(p) for p in once)
        assert len(once) == len({p.resolve() for p in once})


def synthetic_core(attr: str, capture: bool, restore: bool,
                   fingerprint: bool) -> str:
    """A BaseCore subclass whose ``attr`` coverage is parameterised."""
    return textwrap.dedent(f"""
        class SyntheticCore(BaseCore):
            def __init__(self):
                super().__init__()
                self.{attr} = []

            def advance(self):
                self.{attr}.append(1)

            def snapshot(self):
                return {f'(list(self.{attr}),)' if capture else '()'}

            def restore(self, state):
                {f'self.{attr} = list(state[0])' if restore else 'pass'}

            def state_fingerprint(self):
                return {f'tuple(self.{attr})' if fingerprint else '()'}
        """)


class TestStateCoverage:
    def test_flags_unfingerprinted_mutable_attribute(self):
        findings = audit_source(synthetic_core("_scratch", True, True, False))
        assert [f.rule_id for f in findings] == ["state-coverage"]
        assert "_scratch" in findings[0].message
        assert "fingerprint" in findings[0].message

    def test_fully_covered_attribute_is_clean(self):
        assert audit_source(synthetic_core("_scratch", True, True, True)) == []

    def test_flags_state_the_reset_path_never_assigns(self):
        findings = audit_fixture("bad_state_reset.py")
        assert [f.rule_id for f in findings] == ["state-coverage"]
        assert "._redirect " in findings[0].message
        assert "reset path" in findings[0].message

    def test_real_core_without_its_reset_is_flagged(self, real_core_modules):
        # The in-order core before its redirect target was reset: snapshot,
        # restore and fingerprint covered it, reset did not.
        inorder = next(module for module in real_core_modules
                       if module.relpath.endswith("inorder.py"))
        line = "        self._redirect_target = 0\n"
        reset = inorder.source.index("def _reset_microarchitecture")
        at = inorder.source.index(line, reset)
        mutant = inorder.source[:at] + inorder.source[at + len(line):]
        companions = [module for module in real_core_modules
                      if module is not inorder]
        findings = audit_source(mutant, select=["state-coverage"],
                                companions=companions)
        assert [f.rule_id for f in findings] == ["state-coverage"]
        assert "InOrderCore._redirect_target " in findings[0].message

    def test_init_only_configuration_is_not_state(self):
        source = textwrap.dedent("""
            class ConfigCore(BaseCore):
                def __init__(self):
                    super().__init__()
                    self._widths = [8, 16]

                def snapshot(self):
                    return ()

                def restore(self, state):
                    pass

                def state_fingerprint(self):
                    return ()
            """)
        assert audit_source(source) == []

    @settings(max_examples=40, deadline=None)
    @given(attr=st.from_regex(r"\A_[a-z]{1,8}\Z"),
           capture=st.booleans(), restore=st.booleans(),
           fingerprint=st.booleans())
    def test_any_coverage_gap_is_flagged(self, attr, capture, restore,
                                         fingerprint):
        findings = audit_source(
            synthetic_core(attr, capture, restore, fingerprint),
            select=["state-coverage"])
        if capture and restore and fingerprint:
            assert findings == []
        else:
            assert len(findings) == 1
            assert findings[0].rule_id == "state-coverage"
            assert f".{attr} " in findings[0].message

    @pytest.fixture(scope="class")
    def real_core_modules(self):
        microarch = REPO_ROOT / "src" / "repro" / "microarch"
        files = [microarch / name for name in
                 ("core.py", "state.py", "memory.py", "inorder.py", "ooo.py")]
        modules, errors = load_modules(files, root=REPO_ROOT)
        assert not errors
        return modules

    def test_both_real_cores_stay_green(self, real_core_modules):
        from repro.devtools.audit import audit_modules

        findings = audit_modules(real_core_modules,
                                 select=["state-coverage"])
        assert findings == [], "\n".join(f.format() for f in findings)

    @settings(max_examples=20, deadline=None)
    @given(suffix=st.from_regex(r"\A[a-z]{1,6}\Z"), covered=st.booleans(),
           reset=st.booleans())
    def test_subclass_of_real_core_inherits_contract(self, suffix, covered,
                                                     reset, real_core_modules):
        # Cross-module resolution: the synthetic subclass has no trio (or
        # reset) of its own unless `covered` (`reset`); the contract and the
        # reset path are found on InOrderCore/BaseCore through the companion
        # modules, so an uncovered attribute is the PR 7 bug class, and a
        # covered one the reset path misses survives into the next run:
        # both must flag.
        attr = f"_probe_{suffix}"
        trio = textwrap.dedent(f"""
            def _snapshot_microarchitecture(self):
                return {{"probe": list(self.{attr})}}

            def _restore_microarchitecture(self, micro):
                self.{attr} = list(micro["probe"])

            def _fingerprint_microarchitecture(self):
                return tuple(self.{attr})
            """)
        reset_path = textwrap.dedent(f"""
            def _reset_microarchitecture(self, program):
                super()._reset_microarchitecture(program)
                self.{attr} = []
            """)
        source = textwrap.dedent(f"""
            class ProbeCore(InOrderCore):
                def __init__(self):
                    super().__init__()
                    self.{attr} = []

                def _advance(self, stop):
                    self.{attr}.append(1)
            """)
        if covered:
            source += textwrap.indent(trio, "    ")
        if reset:
            source += textwrap.indent(reset_path, "    ")
        findings = audit_source(source, select=["state-coverage"],
                                companions=real_core_modules)
        if covered and reset:
            assert findings == []
        else:
            assert [f.rule_id for f in findings] == ["state-coverage"]
            assert attr in findings[0].message
            assert ("reset path" in findings[0].message) == covered


class TestRegressions:
    """Pin the behaviour corrected while bringing the tree to zero findings."""

    def test_artifact_store_census_counts_every_entry(self, tmp_path):
        # engine/artifacts.py stats() now iterates sorted(root.glob(...));
        # the census must still see every artifact regardless of creation
        # order.
        from repro.engine.artifacts import ARTIFACT_SUFFIX, GoldenArtifactStore

        store = GoldenArtifactStore(tmp_path)
        for name in ("zz", "aa", "mm"):
            (tmp_path / f"{name}{ARTIFACT_SUFFIX}").write_bytes(b"x" * 10)
        stats = store.stats()
        assert stats.entries == 3
        assert stats.size_bytes == 30

    def test_artifacts_module_is_audit_clean(self):
        findings = audit_paths(
            [REPO_ROOT / "src" / "repro" / "engine" / "artifacts.py"],
            root=REPO_ROOT, select=["unsorted-iteration"])
        assert findings == []


class TestFormattedLatchName:
    MICROARCH = "src/repro/microarch/probe.py"

    def findings(self, body: str, relpath: str = MICROARCH):
        source = "class Core:\n" + textwrap.indent(textwrap.dedent(body), "    ")
        return audit_source(source, relpath=relpath,
                            select=["formatted-latch-name"])

    @pytest.mark.parametrize("call", [
        'self.latches.get(f"rob.e{i:02d}.valid")',
        'latches.set(f"iq.e{i:02d}.op", 0)',
        'self._latches.get_signed(name=f"fb.e{i}.pc")',
        'latches.set("stq.e{}.data".format(i), 1)',
    ])
    def test_formatted_names_are_flagged(self, call):
        findings = self.findings(f"def step(self, latches, i):\n    {call}\n")
        assert [f.rule_id for f in findings] == ["formatted-latch-name"]
        assert findings[0].line == 3

    @pytest.mark.parametrize("call", [
        'self.latches.get("rob.head")',
        'v[self._rob[i].valid] = 0',
        'latches.slot(f"rob.e{i:02d}.valid")',
        'self.cache.get(f"key{i}")',
    ])
    def test_literal_names_and_slots_are_clean(self, call):
        assert self.findings(f"def step(self, latches, i):\n    {call}\n") == []

    def test_scoped_to_microarch(self):
        body = 'def step(self, i):\n    self.latches.get(f"rob.e{i}.valid")\n'
        assert self.findings(body, relpath="tests/probe.py") == []
        assert len(self.findings(body)) == 1

    def test_real_cores_are_clean(self):
        microarch = REPO_ROOT / "src" / "repro" / "microarch"
        assert audit_paths([microarch], root=REPO_ROOT,
                           select=["formatted-latch-name"]) == []


class TestManifestDrift:
    def test_same_environment_has_no_drift(self):
        from repro.obs import manifest_dict, manifest_drift

        assert manifest_drift(manifest_dict(seed=1)) == []
        assert manifest_drift(None) == []

    def test_package_and_git_drift_are_described(self):
        from repro.obs import manifest_dict, manifest_drift

        manifest = manifest_dict(seed=1)
        manifest["packages"] = dict(manifest["packages"], python="0.0.0")
        manifest["git"] = "0" * 40
        drift = manifest_drift(manifest)
        assert any(entry.startswith("python 0.0.0 -> ") for entry in drift)
        if manifest_dict()["git"]:
            assert any(entry.startswith("git 000000000000 -> ")
                       for entry in drift)

    def test_load_frontier_warns_on_drifted_manifest(self, tmp_path):
        import warnings

        from repro.analysis.pareto import ParetoFrontier, ParetoPoint
        from repro.analysis.store import load_frontier, save_frontier
        from repro.obs import manifest_dict

        frontier = ParetoFrontier()
        frontier.update([ParetoPoint(improvement=2.0, energy_pct=10.0,
                                     area_pct=5.0, exec_time_pct=1.0,
                                     label="p")])
        manifest = manifest_dict(seed=3)
        manifest["packages"] = dict(manifest["packages"], python="0.0.0")
        path = save_frontier(tmp_path / "f.json", frontier, manifest=manifest)
        with pytest.warns(RuntimeWarning, match="different .*environment"):
            store = load_frontier(path)
        assert len(store.frontier) == 1

        fresh = save_frontier(tmp_path / "g.json", frontier)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_frontier(fresh)

    def test_store_stats_table_surfaces_drift(self, tmp_path):
        from repro.engine.artifacts import GoldenArtifactStore
        from repro.obs import manifest_dict
        from repro.reporting.tables import format_artifact_store_stats

        store = GoldenArtifactStore(tmp_path)
        manifest = manifest_dict()
        assert "provenance: matches this environment" in \
            format_artifact_store_stats(store, manifest=manifest)
        manifest["packages"] = dict(manifest["packages"], python="0.0.0")
        drifted = format_artifact_store_stats(store, manifest=manifest)
        assert "provenance DRIFT" in drifted
        assert "python 0.0.0 ->" in drifted
        assert "provenance" not in format_artifact_store_stats(store)


class TestRuleMetadata:
    def test_rule_table_covers_every_rule(self):
        table = dict(rule_table())
        assert set(table) == set(rule_ids())
        assert all(summary for summary in table.values())

    def test_rule_ids_are_well_formed(self):
        for rule in RULES:
            assert rule.rule_id == rule.rule_id.lower()
            assert " " not in rule.rule_id
