"""`python tests/goldens.py` runs every entry of tests/goldens.json at
every hash seed it lists, and exits 1 if any run fails.  A run is
`python <argv>` from the repository root with PYTHONPATH=src (a null seed
leaves PYTHONHASHSEED unset); it passes when it exits 0 within the
entry's seconds and its stdout has the entry's sha256.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def entries() -> list:
    return json.loads((ROOT / "tests" / "goldens.json").read_text())


def check(entry: dict, seed) -> str:
    """What went wrong in the entry's run at this hash seed, or ''."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = "src"
    if seed is not None:
        env["PYTHONHASHSEED"] = str(seed)
    try:
        res = subprocess.run([sys.executable, *entry["argv"]], cwd=ROOT,
                             env=env, capture_output=True,
                             timeout=entry["seconds"])
    except subprocess.TimeoutExpired:
        return f"no exit within {entry['seconds']} s"
    if res.returncode:
        err = res.stderr.decode(errors="replace")
        return f"exit {res.returncode}: {err[-2000:]}"
    digest = hashlib.sha256(res.stdout).hexdigest()
    return "" if digest == entry["sha256"] else f"stdout sha256 {digest}"


if __name__ == "__main__":
    failed = 0
    for entry in entries():
        for seed in entry["seeds"]:
            problem = check(entry, seed)
            failed += bool(problem)
            print(entry["name"], "PYTHONHASHSEED="
                  + ("unset" if seed is None else str(seed)),
                  problem or "ok", flush=True)
    sys.exit(1 if failed else 0)
