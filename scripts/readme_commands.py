"""Run every ``dpsgld`` command in the README's code blocks.

    python scripts/readme_commands.py OUT_ROOT DPSGLD...

``DPSGLD...`` is the command that stands for ``dpsgld`` (an installed entry
point, or ``python -m dpsgld.cli``). Backslash continuations are joined,
``#`` comments dropped, and each ``--out DIR`` is sent to OUT_ROOT/DIR. Each
command runs with PYTHONWARNINGS=error; the script stops with the exit
status of the first command that fails, and fails if the README holds none.
"""

from __future__ import annotations

import os
import pathlib
import shlex
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(text: str) -> list[list[str]]:
    """The argument lists after ``dpsgld`` of each command in the code blocks of ``text``."""
    commands, in_block, pending = [], False, ""
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, pending = not in_block, ""
            continue
        if not in_block:
            continue
        pending += line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        # only a command is split: the other blocks hold prose with stray quotes
        if pending.startswith("dpsgld "):
            commands.append(shlex.split(pending, comments=True)[1:])
        pending = ""
    return commands


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_root, prefix = argv[0], argv[1:]
    commands = readme_commands(README.read_text(encoding="utf-8"))
    if not commands:
        print(f"no dpsgld commands in {README}", file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    for args in commands:
        args = [
            os.path.join(out_root, arg) if i and args[i - 1] == "--out" else arg
            for i, arg in enumerate(args)
        ]
        print("dpsgld " + shlex.join(args), flush=True)
        status = subprocess.run([*prefix, *args], env=env, stdout=subprocess.DEVNULL).returncode
        if status:
            print(f"exit status {status}", file=sys.stderr)
            return status
    print(f"{len(commands)} README commands ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
