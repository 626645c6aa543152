"""Rewrite the GOLDEN table of tests/test_golden.py from the current code.

    python3 tests/regen_golden.py

Run it only after a change meant to alter report bytes or exit codes.  It
prints each row whose exit code or digest changed, then the number of rows
written.  In a git checkout each changed call is also run, in a
subprocess, against the committed ``src`` (``git archive HEAD src``) and
against the working tree, and every JSON path whose value differs is
printed with its old and new value; both sides run in the directory of
the fresh inputs, so a verify call replays the certificates that the
working tree wrote.  Elsewhere only the old and new exit codes and
digests are printed.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import test_golden as golden  # noqa: E402  (this directory is on sys.path)

# Runs the calls named on stdin, one per line, with the comatch on
# PYTHONPATH, and prints their exit codes and stdouts as one JSON list.
# A call that the code does not know exits through argparse.
CHILD = """
import contextlib, io, json, sys
from comatch.cli import main
runs = []
for call in sys.stdin.read().splitlines():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(call.split())
        except SystemExit as stop:
            code = stop.code
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def outputs(src: Path, calls: list[str]) -> list[tuple[int, str]]:
    """Exit code and stdout of each call, run in order by the comatch in
    ``src``, in the current directory."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input="\n".join(calls), env=env, capture_output=True, text=True, check=True,
    )
    return [tuple(run) for run in json.loads(done.stdout)]


def differences(old, new, path=""):
    """(path, old, new) for each JSON path whose value differs; a key on
    one side only reads as absent on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(key for key in new if key not in old)]:
            yield from differences(
                old.get(key, "absent"), new.get(key, "absent"), f"{path}.{key}"
            )
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{index}]")
    elif old != new:
        yield path.lstrip(".") or "(whole document)", old, new


def committed_src(work: str):
    """The committed ``src`` extracted under ``work``, or None outside a git
    checkout."""
    try:
        archive = subprocess.run(
            ["git", "archive", "HEAD", "src"],
            cwd=HERE.parent, capture_output=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(work, filter="data")
    return Path(work) / "src"


def show_changes(changed: list[tuple[str, int, str]], old: dict) -> None:
    """Print each changed row: as JSON paths against the committed code
    when there is one, else as exit codes and digests."""
    with tempfile.TemporaryDirectory() as scratch:
        parent = committed_src(scratch) if changed else None
        if parent is not None:
            calls = [call for call, _, _ in changed]
            before = outputs(parent, calls)
            after = outputs(HERE.parent / "src", calls)
    for index, (call, code, digest) in enumerate(changed):
        print(call)
        if parent is None:
            was = "absent" if call not in old else "exit {}, {}".format(*old[call])
            print(f"  old: {was}\n  new: exit {code}, {digest}")
            continue
        (old_code, old_text), (new_code, new_text) = before[index], after[index]
        if old_code != new_code:
            print(f"  exit: {old_code} -> {new_code}")
        try:
            paths = list(differences(json.loads(old_text), json.loads(new_text)))
        except json.JSONDecodeError:
            paths = [("stdout", old_text, new_text)] if old_text != new_text else []
        for path, a, b in paths:
            print(f"  {path}: {json.dumps(a)} -> {json.dumps(b)}")
        if old_code == new_code and not paths:
            print("  same exit code and stdout as the committed code")


def main() -> int:
    old = {call: (code, digest) for call, code, digest in golden.GOLDEN}
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        golden.write_inputs()
        rows = [(call, *golden.run(call)) for call in golden.CALLS]
        rows += [(call, *golden.run(call)) for call in golden.verify_calls()]
        changed = [row for row in rows if old.get(row[0]) != tuple(row[1:])]
        show_changes(changed, old)
    table = "".join(
        f'    ("{call}", {code},\n     "{digest}"),\n' for call, code, digest in rows
    )
    module = HERE / "test_golden.py"
    text, count = re.subn(
        r"^GOLDEN = \[\n.*?^\]\n",
        lambda _: f"GOLDEN = [\n{table}]\n",
        module.read_text(),
        flags=re.S | re.M,
    )
    if count != 1:
        raise SystemExit(f"no GOLDEN table found in {module}")
    module.write_text(text)
    print(f"{len(rows)} rows written to {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
