"""Tests for the benchmark-dependence analysis (Sec. 4) and the frontier
persistence layer."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.analysis import (
    BenchmarkDependenceStudy,
    ParetoFrontier,
    ParetoPoint,
    StoredFrontier,
    frontier_to_dict,
    load_frontier,
    make_splits,
    merge_frontiers,
    paired_p_value,
    save_frontier,
    subset_similarity,
)
from repro.physical import DesignCostModel, RecoveryKind
from repro.resilience import dfc_descriptor


class TestSplits:
    def test_split_sizes_and_disjointness(self, ino_framework):
        benchmarks = ino_framework.benchmark_names()
        splits = make_splits(benchmarks, training_size=4, count=50, seed=1)
        assert len(splits) == 50
        for split in splits:
            assert len(split.training) == 4
            assert set(split.training).isdisjoint(split.validation)
            assert set(split.training) | set(split.validation) == set(benchmarks)

    def test_deterministic(self):
        names = [f"b{i}" for i in range(10)]
        assert make_splits(names, seed=2) == make_splits(names, seed=2)


class TestPValue:
    def test_identical_distributions_high_p(self):
        assert paired_p_value([0.0, 0.0, 0.0, 0.0]) == 1.0

    def test_consistent_shift_low_p(self):
        assert paired_p_value([1.0, 1.1, 0.9, 1.05, 0.95] * 4) < 0.01

    def test_short_input(self):
        assert paired_p_value([1.0]) == 1.0


class TestSimilarity:
    def test_table27_shape(self, ino_framework):
        similarities = subset_similarity(ino_framework.vulnerability)
        assert len(similarities) == 10
        # Top decile and the always-vanish tail are consistent across
        # benchmarks; the middle deciles are benchmark-specific (Table 27).
        assert similarities[0] > 0.3
        assert max(similarities[2:6]) < 0.2
        assert similarities[-1] > 0.7
        assert all(0.0 <= s <= 1.0 for s in similarities)


@dataclass(frozen=True)
class _Payload:
    label: str
    detail: int


class TestFrontierStore:
    def _frontier(self) -> ParetoFrontier:
        frontier = ParetoFrontier()
        frontier.update([
            ParetoPoint(improvement=10.0, energy_pct=1.0, area_pct=0.5,
                        exec_time_pct=0.0, label="cheap",
                        payload=_Payload("cheap", 1)),
            ParetoPoint(improvement=50.3, energy_pct=2.25, area_pct=1.5,
                        exec_time_pct=0.1, label="mid"),
            ParetoPoint(improvement=1e5, energy_pct=8.0, area_pct=3.0,
                        exec_time_pct=0.2, label="max",
                        payload=object()),          # opaque: dropped on save
            ParetoPoint(improvement=5.0, energy_pct=9.0, area_pct=9.0,
                        exec_time_pct=9.0, label="dominated"),
        ])
        return frontier

    def test_round_trip_preserves_dominance_structure(self, tmp_path):
        frontier = self._frontier()
        path = save_frontier(tmp_path / "frontier.json", frontier,
                             metadata={"label": "run-a", "seed": 7})
        stored = load_frontier(path)
        assert isinstance(stored, StoredFrontier)
        assert stored.metadata == {"label": "run-a", "seed": 7}
        assert stored.label == "run-a"
        coords = lambda f: [(p.improvement, p.energy_pct, p.area_pct,
                             p.exec_time_pct, p.label) for p in f.points()]
        assert coords(stored.frontier) == coords(frontier)   # bit-exact floats
        assert stored.frontier.seen == frontier.seen == 4
        assert len(stored.frontier) == len(frontier) == 3
        # Dataclass payloads survive as plain JSON dicts, opaque ones as None.
        by_label = {p.label: p.payload for p in stored.frontier.points()}
        assert by_label["cheap"] == {"label": "cheap", "detail": 1}
        assert by_label["max"] is None

    def test_second_round_trip_is_stable(self, tmp_path):
        first = save_frontier(tmp_path / "a.json", self._frontier())
        second = save_frontier(tmp_path / "b.json", load_frontier(first).frontier)
        assert json.loads(first.read_text())["points"] == \
               json.loads(second.read_text())["points"]

    def test_load_and_merge_across_runs(self, tmp_path):
        run_a = self._frontier()
        run_b = ParetoFrontier()
        run_b.update([
            ParetoPoint(improvement=50.3, energy_pct=2.25, area_pct=1.5,
                        exec_time_pct=0.1, label="aa-first"),  # coordinate tie
            ParetoPoint(improvement=20.0, energy_pct=1.5, area_pct=0.1,
                        exec_time_pct=0.0, label="new"),
        ])
        stored_a = load_frontier(save_frontier(tmp_path / "a.json", run_a))
        stored_b = load_frontier(save_frontier(tmp_path / "b.json", run_b))
        forward = merge_frontiers([stored_a, stored_b])
        backward = merge_frontiers([stored_b, stored_a])
        assert [p.label for p in forward.points()] == \
               [p.label for p in backward.points()]
        assert "aa-first" in {p.label for p in forward.points()}  # tie-break
        assert forward.seen == run_a.seen + run_b.seen

    def test_version_and_format_guards(self, tmp_path):
        frontier = self._frontier()
        document = frontier_to_dict(frontier)
        document["version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="version"):
            load_frontier(path)
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a Pareto frontier store"):
            load_frontier(path)
        # Truncated-but-valid-header documents surface as ValueError too.
        path.write_text(json.dumps({"format": document["format"], "version": 1}))
        with pytest.raises(ValueError, match="malformed frontier store"):
            load_frontier(path)

    def test_save_replaces_store_atomically(self, tmp_path):
        path = tmp_path / "frontier.json"
        save_frontier(path, self._frontier())
        save_frontier(path, self._frontier())      # overwrite via os.replace
        assert len(load_frontier(path).frontier) == 3
        assert not (tmp_path / "frontier.json.tmp").exists()


class TestDependenceStudy:
    @pytest.fixture(scope="class")
    def study(self, ino_framework):
        return BenchmarkDependenceStudy(ino_framework.core.registry,
                                        ino_framework.vulnerability,
                                        ino_framework.timing)

    def test_selective_training_generalises_roughly(self, study, ino_framework):
        splits = make_splits(ino_framework.benchmark_names(), count=3, seed=4)
        result, _ = study.evaluate_selective(10.0, splits[0])
        assert result.trained_sdc >= 10.0
        assert result.validated_sdc > 1.0

    def test_lhl_augmentation_raises_validated_improvement(self, study, ino_framework):
        cost_model = DesignCostModel(ino_framework.core.name,
                                     ino_framework.core.flip_flop_count)
        split = make_splits(ino_framework.benchmark_names(), count=1, seed=5)[0]
        plain, plain_cost = study.evaluate_selective(20.0, split, cost_model=cost_model)
        augmented, augmented_cost = study.evaluate_selective(20.0, split, with_lhl=True,
                                                             cost_model=cost_model)
        assert augmented.validated_sdc > plain.validated_sdc
        assert augmented_cost.energy_pct > plain_cost.energy_pct

    def test_high_level_train_validate(self, study, ino_framework):
        splits = make_splits(ino_framework.benchmark_names(), count=5, seed=6)
        result = study.evaluate_high_level(dfc_descriptor(), splits)
        # DFC alone provides only a marginal improvement (Table 3 reports
        # 1.2x with the gamma correction folded in; our estimate lands in the
        # same "barely helps" regime).
        assert 0.8 < result.trained_sdc < 2.0
        assert abs(result.sdc_underestimate_pct) < 30.0

    def test_high_level_averages_are_pinned(self, study, ino_framework):
        # Tables 23/24 average over splits left to right, so the bits do not
        # depend on the Python version (the builtin float ``sum`` is
        # compensated from 3.12 on).
        splits = make_splits(ino_framework.benchmark_names(), count=50, seed=6)
        result = study.evaluate_high_level(dfc_descriptor(), splits)
        assert (result.trained_sdc, result.validated_sdc,
                result.trained_due, result.validated_due) == (
            0.9465416020178756, 0.9465416020178747,
            0.7191359545787068, 0.7191278838763583)
