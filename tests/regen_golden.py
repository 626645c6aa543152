"""Rewrite the GOLDEN table of tests/test_golden.py from the current code.

    python3 tests/regen_golden.py

Run it only after a change meant to alter report bytes or exit codes, and
read the table's diff: each changed row is a changed output.
"""

import contextlib
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import test_golden as golden  # noqa: E402  (this directory is on sys.path)


def main() -> int:
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        golden.write_inputs()
        rows = [(call, *golden.run(call)) for call in golden.CALLS]
        rows += [(call, *golden.run(call)) for call in golden.verify_calls()]
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
