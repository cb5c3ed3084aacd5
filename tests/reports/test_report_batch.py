"""The report task batcher: planning, and byte-identical store records.

``ReportTaskBatcher`` groups timing tasks that differ only in their seed
(derived, or an explicit ``seeds = [...]`` axis value) and runs each
block as one batched engine call.  Batching must stay invisible: the
store holds the same bytes as a campaign without a batcher, on either
engine.
"""

import pytest

from repro.reports import ReportSpec, compile_report, run_report
from repro.reports.compiler import TIMING_TASK_FN
from repro.reports.tasks import ReportTaskBatcher
from repro.runtime import ResultStore, RunSpec, SweepSpec, run_campaign
from repro.scenarios.batch import ScenarioTaskBatcher

SEEDS = [0, 1, 2, 3]


def seeded_report(**overrides):
    """campaign_rate_sweep (3 rates) over an explicit 4-seed axis."""
    doc = {"name": "t", "scenario": "campaign_rate_sweep",
           "metrics": [{"name": "runtime"}], "seeds": SEEDS, **overrides}
    return compile_report(ReportSpec.from_dict(doc))


def seeded_tasks():
    (target,) = seeded_report().targets
    return target.sweep.tasks()


class TestPlan:
    def test_explicit_seed_axis_values_share_a_block(self):
        tasks = seeded_tasks()  # 3 rates x 4 seeds, seed fastest
        assert [dict(t.params)["seed"] for t in tasks[:4]] == SEEDS
        assert all(t.seed is None for t in tasks)
        assert ReportTaskBatcher().plan(tasks) == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    def test_max_block_splits_blocks(self):
        blocks = ReportTaskBatcher(max_block=3).plan(seeded_tasks())
        assert blocks == [[0, 1, 2], [3], [4, 5, 6], [7], [8, 9, 10], [11]]

    def test_foreign_tasks_are_never_grouped(self):
        (task, *_) = seeded_tasks()
        foreign = tuple(
            RunSpec(fn="repro.scenarios.tasks:scenario_task",
                    params=task.params, seed=task.seed, index=i)
            for i in range(3)
        )
        assert ReportTaskBatcher().plan(foreign) == [[0], [1], [2]]

    def test_shared_values_plan_the_blocks_of_unshared_ones(
            self, shipped_sweeps):
        """The tasks of one sweep share their scenario document, so a
        plan hashes it once; specs rebuilt one by one share nothing, and
        must still plan into the same blocks."""
        for label, sweep in shipped_sweeps:
            batcher = (ReportTaskBatcher() if sweep.fn == TIMING_TASK_FN
                       else ScenarioTaskBatcher())
            tasks = sweep.tasks()
            rebuilt = tuple(RunSpec(t.fn, t.params, t.seed, t.index)
                            for t in tasks)
            if len(tasks) > 1:
                assert rebuilt[0].kwargs["scenario"] is not \
                    rebuilt[1].kwargs["scenario"]
            assert batcher.plan(tasks) == batcher.plan(rebuilt), label

    @staticmethod
    def ring_tasks(n_steps: int) -> "tuple[RunSpec, ...]":
        return SweepSpec(
            fn=TIMING_TASK_FN,
            base={"scenario": {"n_ranks": 8, "n_steps": n_steps},
                  "engine": "lockstep"},
            axes=(("overrides", ({"noise.level": 0.1},)),
                  ("replicate", (0, 1, 2))),
        ).tasks()

    def test_specs_of_two_sweeps_split_into_separate_blocks(self):
        tasks = self.ring_tasks(10) + self.ring_tasks(11)
        assert ReportTaskBatcher().plan(tasks) == [[0, 1, 2], [3, 4, 5]]

    def test_equal_documents_of_two_sweeps_still_batch(self):
        tasks = self.ring_tasks(10) + self.ring_tasks(10)
        assert tasks[0].kwargs["scenario"] is not tasks[3].kwargs["scenario"]
        assert ReportTaskBatcher().plan(tasks) == [[0, 1, 2, 3, 4, 5]]


@pytest.mark.parametrize("engine", ["auto", "dag"])
def test_batched_store_records_equal_unbatched_byte_for_byte(
        tmp_path, store_record_bytes, engine):
    compiled = seeded_report(engine=engine)
    (target,) = compiled.targets
    assert target.grid.engine == ("lockstep" if engine == "auto" else "dag")
    batched = run_report(compiled, store=ResultStore(tmp_path / "batched"))
    serial_store = ResultStore(tmp_path / "serial")
    per_task = run_campaign(target.sweep.tasks(), store=serial_store)
    assert batched.n_executed == per_task.n_executed == 12
    unbatched = run_report(compiled, store=serial_store)
    assert unbatched.n_executed == 0
    assert [r.values for r in batched.rows] == \
        [r.values for r in unbatched.rows]
    batched_records = store_record_bytes(tmp_path / "batched")
    assert len(batched_records) == 12
    assert batched_records == store_record_bytes(tmp_path / "serial")
