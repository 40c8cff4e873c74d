"""Crash-recovery harness: kill a campaign, resume it, compare bytes.

The campaign contract under test: a sweep that is hard-killed after N
journaled points (even mid-journal-line) and then resumed executes only
the missing points and produces a merged report byte-identical to an
uninterrupted run.  The kill is real — a child process running the CLI
dies via ``--kill-after``'s uncatchable ``os._exit``, the stand-in for
SIGKILL/OOM — and the resume goes through the same public entry points
an operator would use.

The Hypothesis property generalizes the same invariant over random
small grids and random kill points, asserting on top that no journaled
point is ever executed twice (via the journal's per-point execution
counter).
"""

import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import CampaignStore, SweepRunner, SweepSpec

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def small_spec(**overrides):
    params = dict(
        name="resume", base_seed=9, seeds=(0, 1), loss_rates=(0.0, 0.05),
        retry_policies=("single-shot", "retry-3"), port_count=10,
        duration=30.0,
    )
    params.update(overrides)
    return SweepSpec(**params)


def journal_lines(path):
    with open(path, "rb") as fh:
        return fh.read().split(b"\n")


def run_killed_campaign(tmp_path, spec, kill_after, extra_args=()):
    """Run ``repro sweep --kill-after N`` in its own session; reap strays.

    The child dies by ``os._exit`` with a pool possibly mid-flight, so
    any worker processes it forked are orphaned — exactly like a real
    SIGKILL.  Running the campaign in a fresh session lets the test
    killpg the whole group afterwards instead of leaking workers into
    the test host.
    """
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.as_dict()))
    prefix = str(tmp_path / "campaign")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", str(spec_path),
         "--out", prefix, "--kill-after", str(kill_after),
         "--partial-every", "1", *extra_args],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        returncode = proc.wait(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert returncode == 137, f"kill injection did not fire ({returncode})"
    return prefix


def resume_campaign(spec, prefix, **runner_kwargs):
    store = CampaignStore(f"{prefix}.journal.jsonl", spec.content_hash(),
                          resume=True)
    runner = SweepRunner(spec, store=store, **runner_kwargs)
    try:
        report = runner.run()
    finally:
        store.close()
    return report, runner


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference: one clean serial run of the standard small spec."""
    return SweepRunner(small_spec(), serial=True).run()


class TestKillThenResume:
    def test_serial_kill_resume_byte_identical(self, tmp_path, uninterrupted):
        spec = small_spec()
        prefix = run_killed_campaign(tmp_path, spec, kill_after=3,
                                     extra_args=("--serial",))
        # exactly N points were journaled before the kill
        store = CampaignStore(f"{prefix}.journal.jsonl", spec.content_hash(),
                              resume=True)
        assert len(store.records) == 3
        store.close()
        # the in-flight partial survived the crash and is valid JSON
        with open(f"{prefix}.partial.json", "r", encoding="utf-8") as fh:
            partial = json.load(fh)
        assert partial["spec_hash"] == spec.content_hash()
        # the kill fires inside the third journal append, before that
        # point's partial rewrite — the partial trails the journal by one
        assert partial["points_done"] == 2

        report, runner = resume_campaign(spec, prefix, serial=True)
        assert canonical(report) == canonical(uninterrupted)
        assert len(runner.resumed_indexes) == 3
        assert len(runner.executed_indexes) == len(spec) - 3
        assert set(runner.resumed_indexes).isdisjoint(runner.executed_indexes)

    def test_pool_kill_resume_byte_identical(self, tmp_path, uninterrupted):
        """Kill the whole pool (parent + workers) mid-campaign."""
        spec = small_spec()
        prefix = run_killed_campaign(tmp_path, spec, kill_after=2,
                                     extra_args=("--workers", "2"))
        report, runner = resume_campaign(spec, prefix, workers=2)
        assert canonical(report) == canonical(uninterrupted)
        # the pool journals in completion order, so the surviving set is
        # arbitrary — but it plus the resumed set must tile the grid
        assert sorted(runner.resumed_indexes + runner.executed_indexes) == \
            list(range(len(spec)))

    def test_mid_line_kill_resume_byte_identical(self, tmp_path, uninterrupted):
        """The crash lands mid-journal-write: the torn tail must be
        dropped, its point re-executed, and the report unchanged."""
        spec = small_spec()
        prefix = run_killed_campaign(tmp_path, spec, kill_after=2,
                                     extra_args=("--serial",))
        path = f"{prefix}.journal.jsonl"
        # shear the last complete line in half (kill mid-write)
        with open(path, "rb") as fh:
            data = fh.read()
        torn = data[: len(data) - len(data.split(b"\n")[-2]) // 2 - 1]
        with open(path, "wb") as fh:
            fh.write(torn)

        report, runner = resume_campaign(spec, prefix, serial=True)
        assert canonical(report) == canonical(uninterrupted)
        # one journaled point was lost to the torn tail -> re-executed
        assert len(runner.resumed_indexes) == 1
        assert len(runner.executed_indexes) == len(spec) - 1

    def test_resume_of_complete_campaign_executes_nothing(self, tmp_path,
                                                          uninterrupted):
        spec = small_spec()
        prefix = str(tmp_path / "done")
        store = CampaignStore(f"{prefix}.journal.jsonl", spec.content_hash())
        report = SweepRunner(spec, serial=True, store=store).run()
        store.close()
        assert canonical(report) == canonical(uninterrupted)

        resumed, runner = resume_campaign(spec, prefix, serial=True)
        assert canonical(resumed) == canonical(uninterrupted)
        assert runner.executed_indexes == []
        assert len(runner.resumed_indexes) == len(spec)

    def test_resume_reruns_failed_points(self, tmp_path):
        spec = small_spec(seeds=(0,), inject_failures={1: "exception"})
        prefix = str(tmp_path / "fails")
        store = CampaignStore(f"{prefix}.journal.jsonl", spec.content_hash())
        first = SweepRunner(spec, serial=True, store=store).run()
        store.close()
        assert first["summary"]["failed_points"] == [1]

        resumed, runner = resume_campaign(spec, prefix, serial=True)
        # the failed point (and only it) was re-attempted
        assert runner.executed_indexes == [1]
        assert canonical(resumed) == canonical(first)
        store = CampaignStore(f"{prefix}.journal.jsonl", spec.content_hash(),
                              resume=True)
        assert store.executions[1] == 2
        assert all(store.executions[i] == 1 for i in (0, 2, 3))
        store.close()

    def test_changed_spec_invalidates_checkpoint(self, tmp_path):
        old = small_spec()
        prefix = str(tmp_path / "stale")
        store = CampaignStore(f"{prefix}.journal.jsonl", old.content_hash())
        SweepRunner(old, serial=True, store=store).run()
        store.close()

        changed = small_spec(port_count=11)
        report, runner = resume_campaign(changed, prefix, serial=True)
        # nothing from the old grid was trusted
        assert runner.resumed_indexes == []
        assert len(runner.executed_indexes) == len(changed)
        clean = SweepRunner(changed, serial=True).run()
        assert canonical(report) == canonical(clean)


class TestResumeProperty:
    """journaled ∪ resumed == full grid, and no point executes twice."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_grid_random_kill_point(self, data, tmp_path_factory):
        seeds = data.draw(
            st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
            label="seeds",
        )
        loss_rates = data.draw(
            st.lists(st.sampled_from([0.0, 0.03, 0.08]), min_size=1,
                     max_size=2, unique=True),
            label="loss_rates",
        )
        retries = data.draw(
            st.lists(st.sampled_from(["single-shot", "retry-2", "retry-3"]),
                     min_size=1, max_size=2, unique=True),
            label="retry_policies",
        )
        port_count = data.draw(st.integers(1, 4), label="port_count")
        spec = SweepSpec(
            name="prop", base_seed=data.draw(st.integers(0, 99), label="base"),
            seeds=tuple(seeds), loss_rates=tuple(loss_rates),
            retry_policies=tuple(retries), port_count=port_count,
            duration=10.0,
        )
        kill_at = data.draw(st.integers(0, len(spec)), label="kill_at")

        tmp = tmp_path_factory.mktemp("prop")
        path = str(tmp / "c.journal.jsonl")

        # the uninterrupted reference run, journaled
        store = CampaignStore(path, spec.content_hash())
        full = SweepRunner(spec, serial=True, store=store).run()
        store.close()

        # "kill after N points": keep the header plus the first N lines
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines[: 1 + kill_at]) + b"\n")

        store = CampaignStore(path, spec.content_hash(), resume=True)
        journaled = set(store.records)
        assert len(journaled) == kill_at
        runner = SweepRunner(spec, serial=True, store=store)
        resumed = runner.run()
        store.close()

        # journaled ∪ resumed tiles the grid exactly, with no overlap
        executed = set(runner.executed_indexes)
        assert journaled | executed == set(range(len(spec)))
        assert journaled & executed == set()
        # the per-point execution counter proves nothing ran twice
        reloaded = CampaignStore(path, spec.content_hash(), resume=True)
        assert set(reloaded.executions) == set(range(len(spec)))
        assert set(reloaded.executions.values()) == ({1} if len(spec) else set())
        reloaded.close()

        assert canonical(resumed) == canonical(full)
