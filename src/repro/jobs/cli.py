"""Command-line front end: ``python -m repro.jobs``.

Inspection of the durable runs root — the companion of the ``--resume``
flags on the sweep CLIs::

    python -m repro.jobs list              # every run, newest first
    python -m repro.jobs latest            # just the newest run id
    python -m repro.jobs latest --kind verify
    python -m repro.jobs show RUN_ID       # replayed cell states of one run

:class:`SweepSession` is the other half: the run-directory handling of the
sweep CLIs (``--resume``, ``--runs-root``, ``--no-journal``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

from ..errors import ReproError, SweepInterrupted
from .rundir import RunDirectory, default_runs_root, list_runs


class SweepSession:
    """The run directory of one sweep CLI invocation, configured by the
    flags every sweep CLI shares (``args.resume``, ``args.runs_root``,
    ``args.no_journal``)."""

    def __init__(self, kind: str, args):
        self.kind = kind
        self.args = args
        self.run_dir: Optional[RunDirectory] = None

    def resumed_matrix(self) -> Optional[dict]:
        """The recorded matrix of the ``--resume`` run (None: fresh sweep).
        An empty id (e.g. a failed command substitution in CI) must not
        silently degrade into a fresh full sweep."""
        run_id = self.args.resume
        if run_id is None:
            return None
        if not run_id.strip():
            raise ReproError("--resume requires a run id")
        self.run_dir = RunDirectory.open(run_id, root=self.args.runs_root)
        kind = self.run_dir.meta.get("kind")
        if kind != self.kind:
            raise ReproError(f"run {run_id} is a {kind!r} run; resume it "
                             f"with python -m repro.{kind}")
        return self.run_dir.meta["matrix"]

    def start(self, matrix: dict, cells: int,
              say: Optional[Callable[[str], None]] = print
              ) -> Optional[RunDirectory]:
        """Mark the resumed run, or create a fresh one unless
        ``--no-journal``; returns the run directory to journal into."""
        if self.run_dir is not None:
            self.run_dir.mark_resumed(cells)
            message = f"resuming run {self.run_dir.run_id}"
        elif not self.args.no_journal:
            self.run_dir = RunDirectory.create(
                self.kind, matrix, cells=cells, root=self.args.runs_root)
            message = (f"run id: {self.run_dir.run_id} "
                       f"(resume with --resume {self.run_dir.run_id})")
        if say is not None and self.run_dir is not None:
            say(message)
        return self.run_dir

    @staticmethod
    def interrupted(exc: SweepInterrupted) -> int:
        """Report a drained sweep once (the message names the resume
        command) and return exit status 130."""
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        return 130

    def close(self) -> None:
        if self.run_dir is not None:
            self.run_dir.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="Inspect the durable sweep runs that --resume resumes.")
    parser.add_argument("--runs-root", default=None, metavar="DIR",
                        help="runs root (default: $REPRO_RUNS_DIR or "
                             "~/.cache/repro/runs)")
    sub = parser.add_subparsers(dest="command")
    list_cmd = sub.add_parser("list", help="list runs, newest first")
    list_cmd.add_argument("--kind", default=None,
                          choices=("explore", "verify"),
                          help="only runs of this kind")
    list_cmd.add_argument("--json", action="store_true",
                          help="machine-readable output")
    latest = sub.add_parser("latest", help="print the newest run id")
    latest.add_argument("--kind", default=None,
                        choices=("explore", "verify"),
                        help="only runs of this kind")
    show = sub.add_parser("show", help="replay one run's journal")
    show.add_argument("run_id")
    show.add_argument("--json", action="store_true",
                      help="machine-readable output")
    return parser


def _cmd_list(args) -> int:
    runs = list_runs(args.runs_root)
    if args.kind:
        runs = [meta for meta in runs if meta.get("kind") == args.kind]
    if args.json:
        print(json.dumps(runs, indent=2, sort_keys=True))
        return 0
    if not runs:
        root = args.runs_root or default_runs_root()
        print(f"no runs under {root}")
        return 0
    for meta in runs:
        print(f"{meta.get('run_id', '?'):28} kind={meta.get('kind', '?'):8}"
              f" cells={meta.get('cells', '?')}")
    return 0


def _cmd_latest(args) -> int:
    runs = list_runs(args.runs_root)
    if args.kind:
        runs = [meta for meta in runs if meta.get("kind") == args.kind]
    if not runs:
        print("no runs", file=sys.stderr)
        return 1
    print(runs[0].get("run_id", ""))
    return 0


def _cmd_show(args) -> int:
    run = RunDirectory.open(args.run_id, root=args.runs_root)
    replay = run.replay()
    meta = run.meta
    total = meta.get("cells")
    pending = None
    if isinstance(total, int):
        pending = total - len(replay.done) - len(replay.failed)
    if args.json:
        print(json.dumps(
            {"run_id": run.run_id, "kind": meta.get("kind"),
             "cells": total, "done": sorted(replay.done),
             "failed": sorted(replay.failed), "pending": pending,
             "records": replay.records, "torn_tail": replay.torn_tail},
            indent=2, sort_keys=True))
        return 0
    print(f"run {run.run_id} kind={meta.get('kind')} cells={total}")
    print(f"  journal: {replay.records} records"
          + (" (torn tail dropped)" if replay.torn_tail else ""))
    print(f"  done: {len(replay.done)}  failed: {len(replay.failed)}"
          + (f"  pending: {pending}" if pending is not None else ""))
    for key, payload in sorted(replay.failed.items()):
        message = (payload or {}).get("message", "")
        print(f"    failed {key}: {message}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        args.command = "list"
        args.kind = None
        args.json = False
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "latest":
            return _cmd_latest(args)
        return _cmd_show(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
