"""Table 18: enumeration of the 586 cross-layer combinations."""

from __future__ import annotations

from _harness import run_once

from repro.core import (
    combination_counts,
    enumerate_combinations,
    total_combination_count,
)
from repro.engine import guided_slices
from repro.reporting import format_table


def bench_table18_combination_counts(benchmark):
    def payload():
        rows = []
        for family in ("InO", "OoO"):
            counts = combination_counts(family)
            assert len(enumerate_combinations(family)) == counts["total"]
            # The exploration engine shards this exact pool with the shared
            # pool partition; the slices must cover it in order.
            slices = guided_slices(counts["total"], workers=4)
            assert [i for part in slices for i in part] \
                == list(range(counts["total"]))
            rows.append([family, counts["base_no_recovery"], counts["base_flush_rob"],
                         counts["base_ir_eir"], counts["abft_alone"],
                         counts["abft_correction_plus"], counts["abft_detection_plus"],
                         counts["total"]])
        rows.append(["total", "", "", "", "", "", "", total_combination_count()])
        return rows

    rows = run_once(benchmark, payload)
    print()
    print(format_table("Table 18: creating the 586 cross-layer combinations",
                       ["core", "no recovery", "flush/RoB", "IR/EIR", "ABFT alone",
                        "ABFT corr. +", "ABFT det. +", "total"], rows))
