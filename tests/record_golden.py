"""Re-record tests/golden.json from the commands of tests/test_golden.py.

    PYTHONPATH=src python tests/record_golden.py

Each command runs in process, in a fresh temporary directory.  Re-recording
changes check data: list each digest that moved in CHANGES.md, with the diff
of the old and the new file.
"""

import json
import os
import tempfile
from pathlib import Path

from test_golden import COMMANDS, ENV, GOLDEN, made_with, outcome


def record() -> dict:
    os.environ.update(ENV)
    commands = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, (argv, documents) in COMMANDS.items():
            directory = Path(scratch) / name
            directory.mkdir()
            commands[name] = outcome(argv, documents, directory)
    return {**made_with(), "commands": commands}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(GOLDEN)
