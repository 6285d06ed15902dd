"""Experiment K1: the fast-kernel algebra layer vs the generic reference path.

This benchmark starts the repo's perf trajectory: it measures the kernel
speedups on polynomial multiplication, quotient reduction and the
end-to-end outsource+lookup path, prints the comparison table, and writes
a snapshot in the ``BENCH_1.json`` schema to pytest's temporary directory.
The tracked ``BENCH_1.json`` at the repository root is recorded by a
deliberate run (``python -m repro.cli bench``), never by the test suite.

Assertion thresholds are deliberately below the typical measured values
(~10x mul at degree 64, ~3.5x end-to-end at n>=200) so the suite stays
robust on loaded machines while still catching a disabled or regressed
fast path.  The end-to-end speedups are paired medians: each round times
the kernel and the generic pass back to back, alternating which goes
first, so a host that changes speed mid-run slows both sides of a pair.
"""

import os

from repro.analysis import format_table
from repro.bench import format_summary, run_benchmarks, write_snapshot

from conftest import emit


def test_kernel_speedups_and_snapshot(benchmark, tmp_path):
    snapshot_path = str(tmp_path / "BENCH_1.json")
    results = benchmark.pedantic(run_benchmarks, args=(), kwargs={"repeat": 3},
                                 rounds=1, iterations=1)
    write_snapshot(results, snapshot_path)

    rows = []
    for degree, row in sorted(results["poly_mul_fp"]["degrees"].items(),
                              key=lambda item: int(item[0])):
        rows.append(["poly mul F_p", f"deg {degree}",
                     f"{row['kernel_ops_per_sec']:.0f}",
                     f"{row['generic_ops_per_sec']:.0f}",
                     f"x{row['speedup']}"])
    for name, row in sorted(results["quotient_reduce"].items()):
        rows.append([f"reduce {name}", row["ring"],
                     f"{row['kernel_ops_per_sec']:.0f}",
                     f"{row['generic_ops_per_sec']:.0f}",
                     f"x{row['speedup']}"])
    for n, row in sorted(results["end_to_end"]["sizes"].items(),
                         key=lambda item: int(item[0])):
        rows.append(["outsource+lookup", f"n={n}",
                     f"{1000.0 / row['kernel_ms']:.1f}",
                     f"{1000.0 / row['generic_ms']:.1f}",
                     f"x{row['speedup']}"])
    emit(format_table(
        ["operation", "size", "kernel ops/s", "generic ops/s", "speedup"],
        rows, title="K1 — fast kernels vs generic reference path"))
    emit(format_summary(results))

    # Acceptance: >=5x poly mul at degree >= 64 over F_p.
    for degree, row in results["poly_mul_fp"]["degrees"].items():
        if int(degree) >= 64:
            assert row["speedup"] >= 5.0, (degree, row)
    # Both quotient reductions must beat the generic path.
    for name, row in results["quotient_reduce"].items():
        assert row["speedup"] >= 1.2, (name, row)
    # Acceptance: >=3x end-to-end outsource+lookup; assert a noise-tolerant
    # 2.5 on the largest document (the snapshot records the actual value).
    sizes = results["end_to_end"]["sizes"]
    largest = str(max(int(n) for n in sizes))
    assert sizes[largest]["speedup"] >= 2.5, sizes
    assert results["end_to_end"]["speedup"] >= 2.0, results["end_to_end"]
    assert os.path.exists(snapshot_path)
