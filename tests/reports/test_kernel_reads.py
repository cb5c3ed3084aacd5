"""Kernel input contract: a kernel reads only the matrices it declares.

A report stacks only the union of its kernels' ``reads``, so a kernel
that touched an undeclared matrix would fail (or, worse, read a
neighbour's stack) only in reports that happen not to need it.  Every
registered kernel, on a batch of each bundled report target's shape,
must return bitwise the same fields from a batch holding only its
declared matrices as from the full batch.
"""

import numpy as np
import pytest

from repro.core.timing import TIMING_FIELDS, BatchedTiming
from repro.reports import compile_report, load_bundled_report
from repro.reports.kernels import MetricContext, get_kernel, kernel_names
from repro.reports.registry import bundled_report_names
from repro.reports.runner import _point_meta
from repro.reports.tasks import ReportTaskBatcher
from repro.runtime import run_campaign


def _first_points():
    """(label, compiled point, its draws' timing records) of the first
    grid point of every bundled report target."""
    points = []
    for name in bundled_report_names():
        report = compile_report(load_bundled_report(name))
        for target in report.targets:
            tasks = target.sweep.tasks()[:target.draws_per_point]
            values = run_campaign(tasks, batcher=ReportTaskBatcher()) \
                .raise_failures().values()
            points.append((f"{name}/{target.scenario.name}",
                           target.grid.compiled[0], values))
    return points


@pytest.fixture(scope="module")
def first_points():
    return _first_points()


def _batch(compiled, values, names) -> BatchedTiming:
    return BatchedTiming(
        **{name: np.stack([v[name] for v in values]) for name in names},
        meta=_point_meta(compiled))


@pytest.mark.parametrize("kernel_name", kernel_names())
def test_kernel_reads_only_what_it_declares(first_points, kernel_name):
    kernel = get_kernel(kernel_name)
    assert kernel.reads and set(kernel.reads) <= set(TIMING_FIELDS)
    checked = 0
    for label, compiled, values in first_points:
        if kernel.needs_delay and not compiled.cfg.delays:
            continue
        ctx = MetricContext(compiled=compiled)
        full = kernel.compute(_batch(compiled, values, TIMING_FIELDS), ctx)
        declared = kernel.compute(_batch(compiled, values, kernel.reads), ctx)
        for field_name in kernel.fields:
            assert declared[field_name].tobytes() == \
                full[field_name].tobytes(), (label, field_name)
        checked += 1
    assert checked, f"no bundled report target fits kernel {kernel_name!r}"


def test_bundled_report_shapes_are_covered(first_points):
    """One batch per target of every bundled report, each with the
    point's ``(B, n_ranks, n_steps)``."""
    assert len({label.split("/")[0] for label, _, _ in first_points}) == \
        len(bundled_report_names())
    for label, compiled, values in first_points:
        assert {v["idle"].shape for v in values} == \
            {(compiled.cfg.n_ranks, compiled.cfg.n_steps)}, label
