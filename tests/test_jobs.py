"""Tests of the durable job engine (repro.jobs).

Three layers: the journal/run-directory durability model (torn-tail replay,
content-addressed run ids), the supervised execution engine (crash
containment, heartbeat loss, timeout classes, graceful serial fallback),
and crash/recovery end-to-end — a sweep SIGKILLed mid-run must resume from
its journal re-executing only the unfinished cells, with the final report
identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import FailedCell, JobError, SweepInterrupted
from repro.jobs import (
    JobCell,
    Journal,
    RetryPolicy,
    RunDirectory,
    TIMEOUT_CLASSES,
    derive_run_id,
    list_runs,
    replay_journal,
    run_jobs,
)
from repro.jobs.policy import CellTimeout

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# Module-level worker functions: forked pool workers resolve these by
# name, so they must live at module scope (closures stay serial-only).
# ----------------------------------------------------------------------

def _square(payload):
    return payload * payload


def _die_if_negative(payload):
    if payload < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * payload


def _raise_if_negative(payload):
    if payload < 0:
        raise ValueError(f"bad payload {payload}")
    return payload * payload


def _sleep_for(payload):
    time.sleep(payload)
    return payload


def _stop_once(payload):
    """SIGSTOP this worker the first time: a wedged (not dead) process."""
    flag, value = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return value * value


def _cells(values):
    return [JobCell(key=f"cell/{v}", label=f"cell {v}", payload=v)
            for v in values]


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.run_header("run-1", "explore", cells=3)
            journal.cell("a", "running", 1, worker=0)
            journal.cell("a", "done", 1, payload={"cycles": 42})
            journal.cell("b", "running", 1, worker=1)
            journal.cell("c", "failed", 2, payload={"error": "X"})
        replay = replay_journal(path)
        assert replay.run_id == "run-1"
        assert replay.kind == "explore"
        assert replay.cells == 3
        assert replay.done == {"a": {"cycles": 42}}
        assert replay.failed == {"c": {"error": "X"}}
        assert not replay.torn_tail
        # b was mid-flight: it must re-execute.
        assert replay.pending(["a", "b", "c"]) == ["b", "c"]

    def test_torn_tail_truncated_mid_byte_requeues_cell(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.run_header("run-1", "explore", cells=2)
            journal.cell("a", "done", 1, payload={"cycles": 1})
            journal.cell("b", "done", 1, payload={"cycles": 2})
        # Tear the final record mid-byte, as a crash during the last
        # write would: cell b falls back to pending and re-executes.
        raw = path.read_bytes()
        lines = raw.rstrip(b"\n").split(b"\n")
        path.write_bytes(b"\n".join(lines[:-1]) + b"\n" + lines[-1][:15])
        replay = replay_journal(path)
        assert replay.torn_tail
        assert replay.done == {"a": {"cycles": 1}}
        assert replay.pending(["a", "b"]) == ["b"]

    def test_interior_corruption_warns_and_skips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.run_header("run-1", "explore", cells=2)
            journal.cell("a", "done", 1, payload={"cycles": 1})
            journal.cell("b", "done", 1, payload={"cycles": 2})
        lines = path.read_bytes().rstrip(b"\n").split(b"\n")
        lines[1] = b"\xff\xfe not json"  # corrupt cell a's record
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.warns(RuntimeWarning, match="undecodable record"):
            replay = replay_journal(path)
        assert not replay.torn_tail
        assert replay.pending(["a", "b"]) == ["a"]

    def test_missing_journal_is_empty_replay(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.jsonl")
        assert replay.records == 0
        assert replay.pending(["a"]) == ["a"]

    def test_sigkill_loses_nothing_flushed(self, tmp_path):
        """Every append is flushed: a killed writer's records all replay."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import os, signal\n"
            "from repro.jobs import Journal\n"
            "journal = Journal(sys.argv[2])\n"
            "journal.run_header('run-k', 'explore', cells=2)\n"
            "journal.cell('a', 'done', 1, payload={'cycles': 7})\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        path = tmp_path / "journal.jsonl"
        proc = subprocess.run([sys.executable, "-c", script,
                               str(SRC), str(path)], timeout=60)
        assert proc.returncode == -signal.SIGKILL
        replay = replay_journal(path)
        assert replay.done == {"a": {"cycles": 7}}


class TestRetryPolicy:
    def test_backoff_deterministic_capped_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        assert policy.backoff_s(1) == 0.0
        assert policy.backoff_s(2) == pytest.approx(0.1)
        assert policy.backoff_s(3) == pytest.approx(0.2)
        assert policy.backoff_s(4) == pytest.approx(0.4)
        assert policy.backoff_s(5) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(JobError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(JobError):
            RetryPolicy(heartbeat_timeout_s=0.1, heartbeat_interval_s=0.2)
        with pytest.raises(JobError):
            RetryPolicy(timeout_class="nonsense")

    def test_timeout_classes(self):
        assert RetryPolicy().timeout.max_wall_s is None
        smoke = RetryPolicy(timeout_class="smoke").timeout
        assert smoke.max_wall_s == 60.0
        assert smoke.max_cycles == 20_000_000
        assert set(TIMEOUT_CLASSES) == {"unbounded", "smoke", "standard",
                                        "soak"}


class TestRunDirectory:
    def test_run_id_is_content_addressed(self):
        matrix = {"kernels": ["vector_sum"], "axes": [["cores", [1, 2]]]}
        assert derive_run_id("explore", matrix) == \
            derive_run_id("explore", matrix)
        assert derive_run_id("explore", matrix) != \
            derive_run_id("verify", matrix)
        assert derive_run_id("explore", matrix).startswith("explore-")

    def test_create_open_replay(self, tmp_path):
        matrix = {"kernels": ["vector_sum"]}
        run = RunDirectory.create("explore", matrix, cells=2, root=tmp_path)
        run.journal().cell("a", "done", 1, payload={"cycles": 1})
        run.close()
        reopened = RunDirectory.open(run.run_id, root=tmp_path)
        assert reopened.meta["matrix"] == matrix
        assert reopened.meta["cells"] == 2
        assert reopened.replay().done == {"a": {"cycles": 1}}

    def test_open_unknown_run_raises(self, tmp_path):
        with pytest.raises(JobError, match="unknown run id"):
            RunDirectory.open("explore-000000000000", root=tmp_path)

    def test_fresh_create_truncates_previous_journal(self, tmp_path):
        matrix = {"kernels": ["vector_sum"]}
        first = RunDirectory.create("explore", matrix, cells=1,
                                    root=tmp_path)
        first.journal().cell("a", "done", 1, payload={})
        first.close()
        second = RunDirectory.create("explore", matrix, cells=1,
                                     root=tmp_path)
        second.close()
        assert second.run_id == first.run_id
        assert second.replay().done == {}

    def test_list_runs_newest_first(self, tmp_path):
        one = RunDirectory.create("explore", {"n": 1}, cells=1,
                                  root=tmp_path)
        one.close()
        os.utime(one.path / "meta.json", (1.0, 1.0))
        os.utime(one.journal_path, (1.0, 1.0))
        two = RunDirectory.create("verify", {"n": 2}, cells=1,
                                  root=tmp_path)
        two.close()
        runs = list_runs(tmp_path)
        assert [meta["run_id"] for meta in runs] == [two.run_id, one.run_id]


class TestRunJobsSerial:
    def test_results_and_journal(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        outcome = run_jobs(_cells([1, 2, 3]), _square, journal=journal)
        journal.close()
        assert outcome.results == {"cell/1": 1, "cell/2": 4, "cell/3": 9}
        assert outcome.executed == 3
        assert not outcome.failures and not outcome.interrupted
        replay = replay_journal(tmp_path / "journal.jsonl")
        assert set(replay.done) == {"cell/1", "cell/2", "cell/3"}

    def test_contained_error_becomes_failed_cell(self):
        outcome = run_jobs(_cells([2, -1, 3]), _raise_if_negative,
                           contain=lambda error: True)
        assert set(outcome.results) == {"cell/2", "cell/3"}
        assert len(outcome.failures) == 1
        cell = outcome.failures[0]
        assert isinstance(cell, FailedCell)
        assert cell.error == "ValueError"
        assert cell.key == "cell/-1"

    def test_uncontained_error_propagates(self):
        with pytest.raises(ValueError):
            run_jobs(_cells([2, -1]), _raise_if_negative)

    def test_on_result_sees_completion_order(self):
        seen = []
        run_jobs(_cells([1, 2, 3]), _square,
                 on_result=lambda cell, value: seen.append(value))
        assert seen == [1, 4, 9]


class TestRunJobsParallel:
    def test_parallel_results_match_serial(self):
        values = list(range(8))
        serial = run_jobs(_cells(values), _square, jobs=1)
        parallel = run_jobs(_cells(values), _square, jobs=3)
        assert parallel.results == serial.results

    def test_sigkilled_worker_contained_and_pool_survives(self, tmp_path):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        journal = Journal(tmp_path / "journal.jsonl")
        outcome = run_jobs(_cells([1, -5, 2, 3]), _die_if_negative,
                           jobs=2, policy=policy, journal=journal)
        journal.close()
        assert outcome.results == {"cell/1": 1, "cell/2": 4, "cell/3": 9}
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error == "WorkerCrashed"
        assert failure.attempts == 2
        assert outcome.lost_workers >= 2
        replay = replay_journal(tmp_path / "journal.jsonl")
        assert "cell/-5" in replay.failed
        assert set(replay.done) == {"cell/1", "cell/2", "cell/3"}

    def test_wedged_worker_declared_lost_and_cell_stolen(self, tmp_path):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                             heartbeat_interval_s=0.05,
                             heartbeat_timeout_s=0.6)
        flag = str(tmp_path / "stopped-once")
        cells = [JobCell(key="cell/wedge", label="wedge", payload=(flag, 6))]
        outcome = run_jobs(cells, _stop_once, jobs=2, policy=policy)
        assert outcome.results == {"cell/wedge": 36}
        assert outcome.lost_workers == 1

    def test_timeout_class_overrun_is_structured_failure(self, monkeypatch):
        monkeypatch.setitem(TIMEOUT_CLASSES, "test-tiny",
                            CellTimeout("test-tiny", max_wall_s=0.4))
        policy = RetryPolicy(timeout_class="test-tiny",
                             heartbeat_interval_s=0.05,
                             heartbeat_timeout_s=5.0)
        cells = [JobCell(key="cell/slow", label="slow cell", payload=30.0)]
        started = time.monotonic()
        outcome = run_jobs(cells, _sleep_for, jobs=2, policy=policy)
        assert time.monotonic() - started < 10.0
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error == "SimulationTimeout"
        assert failure.context["kind"] == "wall_clock"
        assert failure.context["max_wall_s"] == 0.4


def _timing_free(report: dict) -> dict:
    report.pop("elapsed_s", None)
    report.get("summary", {}).pop("elapsed_s", None)
    return report


def _journal_counts(journal_path, state):
    counts = {}
    for line in journal_path.read_bytes().split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("type") == "cell" and record.get("state") == state:
            counts[record["key"]] = counts.get(record["key"], 0) + 1
    return counts


def _proc_stat(pid):
    """``(state, ppid)`` of a live process, ``None`` once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The fields after the ")" that closes the command name start with
    # the state and the parent pid.
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _children(pid):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit()
            and (_proc_stat(entry) or (None, None))[1] == pid]


def _alive(pid):
    """True unless ``pid`` has exited (a zombie has exited, unreaped)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestCrashRecovery:
    """End-to-end: SIGKILL a sweep mid-run, resume it from the journal."""

    EXPLORE_ARGS = ["-m", "repro.explore", "--kernels", "vector_sum",
                    "--axis", "method_cache_size="
                    "256,512,1024,2048,4096,8192,16384,32768",
                    "--jobs", "2", "--no-cache", "--no-wcet", "--no-pareto"]

    def _env(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
        return env

    @staticmethod
    def _table_lines(stdout: str) -> list[str]:
        return [line for line in stdout.splitlines() if "vector_sum" in line]

    def test_sigkill_mid_sweep_resume_matches_uninterrupted(self, tmp_path):
        env = self._env(tmp_path)
        proc = subprocess.Popen([sys.executable, *self.EXPLORE_ARGS],
                                env=env, cwd=tmp_path,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # Wait until some cells are durably done, then SIGKILL the sweep
        # (no drain, no journal close: the crash case).
        journal_path = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if journal_path is None:
                found = list((tmp_path / "runs").glob(
                    "explore-*/journal.jsonl"))
                journal_path = found[0] if found else None
            if journal_path is not None and \
                    len(_journal_counts(journal_path, "done")) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=60)
        assert journal_path is not None, "sweep never created its run dir"
        done_before = _journal_counts(journal_path, "done")
        runs_before = _journal_counts(journal_path, "running")
        assert done_before, "sweep finished before it could be killed"
        run_id = journal_path.parent.name

        resumed = subprocess.run(
            [sys.executable, *self.EXPLORE_ARGS, "--resume", run_id],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        assert f"resuming run {run_id}" in resumed.stdout

        # Done cells were replayed, not re-executed: no new "running"
        # transition for any cell that was already done at the kill.
        runs_after = _journal_counts(journal_path, "running")
        for key in done_before:
            assert runs_after[key] == runs_before[key], \
                f"done cell {key} was re-executed on resume"

        fresh = subprocess.run(
            [sys.executable, *self.EXPLORE_ARGS, "--no-journal"],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        # The resumed report is identical to an uninterrupted sweep
        # (elapsed time aside, which the table does not contain).
        assert self._table_lines(resumed.stdout) == \
            self._table_lines(fresh.stdout)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process state from /proc")
    def test_workers_exit_when_supervisor_is_sigkilled(self, tmp_path):
        env = self._env(tmp_path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.verify", "--jobs", "2",
             "--no-journal", "--quiet"],
            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 120.0
            while len(workers) < 2 and time.monotonic() < deadline \
                    and proc.poll() is None:
                workers = _children(proc.pid)
                time.sleep(0.02)
            assert len(workers) >= 2, "the pool never started two workers"
            proc.kill()
            proc.wait(timeout=60)
            # A few heartbeat intervals: each worker's heartbeat thread sees
            # the changed parent pid on its next beat.
            interval = RetryPolicy().heartbeat_interval_s
            deadline = time.monotonic() + 15 * interval
            while time.monotonic() < deadline \
                    and any(_alive(pid) for pid in workers):
                time.sleep(interval / 4)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_verify_resume_replays_done_cells(self, tmp_path):
        from repro.verify import (DEFAULT_ARBITERS, DEFAULT_VARIANTS,
                                  run_conformance)
        from repro.verify.harness import count_cells

        variants = DEFAULT_VARIANTS[:1]
        arbiters = tuple(a for a in DEFAULT_ARBITERS
                         if a.name in ("single", "tdma2"))
        kwargs = dict(kernels=["vector_sum"], variants=variants,
                      arbiters=arbiters, rtos_scenarios=())
        cells = count_cells(["vector_sum"], variants, arbiters, ())

        baseline = run_conformance(**kwargs).to_dict()
        run = RunDirectory.create("verify", {"t": "resume"}, cells=cells,
                                  root=tmp_path)
        first = run_conformance(**kwargs, run_dir=run).to_dict()
        run.close()

        # Tear the journal back mid-run: drop the trailing records so at
        # least one cell loses its terminal state, then resume.
        journal_path = run.journal_path
        lines = journal_path.read_bytes().rstrip(b"\n").split(b"\n")
        done_full = _journal_counts(journal_path, "done")
        journal_path.write_bytes(b"\n".join(lines[:-3]) + b"\n")
        done_cut = _journal_counts(journal_path, "done")
        assert len(done_cut) < len(done_full)

        resumed_dir = RunDirectory.open(run.run_id, root=tmp_path)
        resumed = run_conformance(**kwargs, run_dir=resumed_dir,
                                  resume=True).to_dict()
        resumed_dir.close()
        for report in (baseline, first, resumed):
            report.pop("elapsed_s", None)
            report.get("summary", {}).pop("elapsed_s", None)
        assert first == baseline
        assert resumed == baseline

        # The same with a pool, where the loop and RTOS cells run in the
        # workers too: tear the journal just before the last loops/ or
        # rtos/ terminal record, resume with jobs=2, and check that only
        # cells without a terminal record ran again.
        from repro.verify import DEFAULT_RTOS_SCENARIOS
        kwargs["rtos_scenarios"] = DEFAULT_RTOS_SCENARIOS[2:3]
        baseline = _timing_free(run_conformance(**kwargs).to_dict())
        run = RunDirectory.create(
            "verify", {"t": "resume-parallel"},
            cells=count_cells(["vector_sum"], variants, arbiters,
                              kwargs["rtos_scenarios"]), root=tmp_path)
        run_conformance(**kwargs, jobs=2, run_dir=run)
        run.close()
        lines = run.journal_path.read_bytes().rstrip(b"\n").split(b"\n")
        records = [json.loads(line) for line in lines]
        cut = max(index for index, record in enumerate(records)
                  if record.get("state") == "done"
                  and record["key"].startswith(("loops/", "rtos/")))
        dropped = records[cut]["key"]
        run.journal_path.write_bytes(b"\n".join(lines[:cut]) + b"\n")
        done_cut = _journal_counts(run.journal_path, "done")
        runs_cut = _journal_counts(run.journal_path, "running")
        assert dropped not in done_cut

        resumed_dir = RunDirectory.open(run.run_id, root=tmp_path)
        resumed = run_conformance(**kwargs, jobs=2, run_dir=resumed_dir,
                                  resume=True).to_dict()
        resumed_dir.close()
        runs_after = _journal_counts(run.journal_path, "running")
        for key in done_cut:
            assert runs_after[key] == runs_cut[key], \
                f"done cell {key} was re-executed on resume"
        assert runs_after[dropped] == runs_cut.get(dropped, 0) + 1
        assert _timing_free(resumed) == baseline

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verify_journal_holds_one_record_per_counted_cell(self, tmp_path,
                                                              jobs):
        from repro.verify import (DEFAULT_ARBITERS, DEFAULT_RTOS_SCENARIOS,
                                  DEFAULT_VARIANTS, run_conformance)
        from repro.verify.harness import count_cells

        matrix = (["vector_sum"], DEFAULT_VARIANTS[:2],
                  tuple(a for a in DEFAULT_ARBITERS
                        if a.name in ("single", "tdma2")),
                  DEFAULT_RTOS_SCENARIOS[2:3])
        cells = count_cells(*matrix)
        run = RunDirectory.create("verify", {"t": "count", "jobs": jobs},
                                  cells=cells, root=tmp_path)
        report = run_conformance(*matrix[:3], rtos_scenarios=matrix[3],
                                 jobs=jobs, run_dir=run)
        run.close()
        assert not report.failures
        terminal = _journal_counts(run.journal_path, "done")
        assert sum(terminal.values()) == len(terminal) == cells
        assert "loops/vector_sum" in terminal
        assert f"rtos/{DEFAULT_RTOS_SCENARIOS[2].name}" in terminal

    def test_verify_resume_rejects_unknown_recorded_engine(self, tmp_path,
                                                           capsys):
        from repro.verify import DEFAULT_VARIANTS
        from repro.verify.cli import main

        # The journal's engine bypasses argparse's --engine choices.
        matrix = {"kernels": ["vector_sum"],
                  "variants": [DEFAULT_VARIANTS[0].name],
                  "arbiters": ["single"],
                  "no_rtos": True, "engine": "jit"}
        run = RunDirectory.create("verify", matrix, cells=1, root=tmp_path)
        run.close()
        code = main(["--resume", run.run_id, "--runs-root", str(tmp_path),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'jit'" in err
        assert _journal_counts(run.journal_path, "running") == {}

    def test_interrupt_carries_resume_command(self, tmp_path):
        from repro.explore.runner import ExplorationRunner
        from repro.explore.space import ParameterSpace

        run = RunDirectory.create("explore", {"t": "int"}, cells=1,
                                  root=tmp_path)
        runner = ExplorationRunner(cache=None)
        space = ParameterSpace(["vector_sum"], analyse_wcet=False)

        def interrupt(payload):
            raise KeyboardInterrupt

        import repro.explore.runner as runner_module
        original = runner_module._spec_worker
        runner_module._spec_worker = interrupt
        try:
            with pytest.raises(SweepInterrupted) as excinfo:
                runner.run(space, run_dir=run)
        finally:
            runner_module._spec_worker = original
            run.close()
        assert excinfo.value.run_id == run.run_id
        assert f"--resume {run.run_id}" in excinfo.value.resume_argv


class TestSweepCli:
    """The sweep CLIs share one run-directory life cycle (SweepSession)."""

    FAULTS = ["--faults", "--kernels", "vector_sum,checksum",
              "--fault-seed", "4", "--quiet"]

    @staticmethod
    def _report(path) -> dict:
        return _timing_free(json.loads(Path(path).read_text()))

    def test_faults_jobs_do_not_change_the_report(self, tmp_path):
        from repro.verify.cli import main

        serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
        assert main([*self.FAULTS, "--no-journal", "--json",
                     str(serial)]) == 0
        assert main([*self.FAULTS, "--no-journal", "--jobs", "2", "--json",
                     str(parallel)]) == 0
        one, two = self._report(serial), self._report(parallel)
        assert one["determinism_hash"] == two["determinism_hash"]
        assert one == two

    def test_interrupted_campaign_resumes_by_id(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.faults import campaign as campaign_module
        from repro.verify.cli import main

        fresh = tmp_path / "fresh.json"
        assert main([*self.FAULTS, "--no-journal", "--json",
                     str(fresh)]) == 0
        real = campaign_module._campaign_cell
        executed = []

        def interrupt_third(payload):
            if len(executed) == 2:
                raise KeyboardInterrupt  # Ctrl-C in the serial sweep
            executed.append(payload[:3])
            return real(payload)
        monkeypatch.setattr(campaign_module, "_campaign_cell",
                            interrupt_third)
        capsys.readouterr()
        code = main([*self.FAULTS, "--runs-root", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 130
        assert err.count("python -m repro.verify --resume") == 1
        run_id = err.split("--resume ")[1].split()[0]
        done_before = list(executed)

        # Resume by id alone: the recorded matrix rebuilds the campaign
        # (kernels and seed), not the conformance matrix.
        monkeypatch.setattr(campaign_module, "_campaign_cell",
                            lambda payload: executed.append(payload[:3])
                            or real(payload))
        resumed = tmp_path / "resumed.json"
        assert main(["--resume", run_id, "--runs-root", str(tmp_path),
                     "--quiet", "--json", str(resumed)]) == 0
        assert not set(executed[2:]) & set(done_before)
        assert len(executed) == 4  # 2 kernels x 2 core counts
        report = self._report(resumed)
        assert report["schema"] == "repro.faults/v1"
        assert report["seed"] == 4
        assert report == self._report(fresh)

    def test_explore_interrupt_names_resume_command_once(self, tmp_path,
                                                        monkeypatch, capsys):
        import repro.explore.runner as runner_module
        from repro.explore.cli import main

        def interrupt(payload):
            raise KeyboardInterrupt
        monkeypatch.setattr(runner_module, "_spec_worker", interrupt)
        code = main(["--kernels", "vector_sum", "--no-cache", "--no-wcet",
                     "--runs-root", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 130
        assert err.count("python -m repro.explore --resume") == 1
