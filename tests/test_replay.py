"""Replay of the benchmark's CLI requests against committed digests.

Every request of `bench/cli_requests.build(s)`, s = 1, 2, 3, is run in
process in text and in `--json` mode, and the sha256 of
repr((argv, exit code, stdout, stderr)) of each run is compared with the one
in `replay_digests.json`, so a failure names each argv whose output changed.
One hash updated with those reprs in order is the combined digest that
earlier changes recorded by hand.  The test reads `bench/` and changes
nothing there.

An intended change of output rewrites the file with
`PYTHONPATH=src python3 tests/test_replay.py --write`; the change that does
so says which requests changed and why.
"""
import hashlib
import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).parent.parent
DIGESTS = Path(__file__).parent / "replay_digests.json"
SEEDS = (1, 2, 3)


def _requests() -> list:
    """The argv of each request of the `requests` workload, without --json."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        cli_requests = importlib.import_module("cli_requests")
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [list(op.call.args[0]) for seed in SEEDS for op in cli_requests.build(seed)]


def replay() -> tuple:
    """([argv, digest] of each run, the combined digest)."""
    from intpoly.cli import main

    runs, combined = [], hashlib.sha256()
    for request in _requests():
        for argv in (request, request + ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            text = repr((argv, code, out.getvalue(), err.getvalue())).encode()
            combined.update(text)
            runs.append([argv, hashlib.sha256(text).hexdigest()])
    return runs, combined.hexdigest()


def test_replay_matches_the_committed_digests():
    pinned = json.loads(DIGESTS.read_text())
    runs, combined = replay()
    assert [argv for argv, _ in runs] == [argv for argv, _ in pinned["runs"]], (
        "the requests of bench/cli_requests changed"
    )
    changed = [argv for (argv, got), (_, want) in zip(runs, pinned["runs"]) if got != want]
    assert not changed, f"{len(changed)} of {len(runs)} outputs changed, first: {changed[:5]}"
    assert combined == pinned["combined"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    runs, combined = replay()
    lines = ",\n".join(json.dumps(run) for run in runs)
    DIGESTS.write_text(f'{{"combined": "{combined}", "runs": [\n{lines}\n]}}\n')
    print(f"{len(runs)} runs, combined sha256 {combined}")
