"""Run one ``cvn`` CLI command with the tracing wrappers installed.

Usage: python3 perfbench/launch.py SPANS_JSON CLI_ARGS...

Installs the wrappers, calls ``cvn.cli.main`` with CLI_ARGS, writes the
recorded spans, the import time of ``cvn.cli`` and the cache statistics to
SPANS_JSON, and exits with the command's exit code.  Standard output and
error are the command's own.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    import json

    t0 = time.perf_counter()
    import cvn.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    from tracer import Installed, Tracer, cache_stats, leftover_wrappers

    tracer = Tracer()
    with Installed(tracer):
        code = cvn.cli.main(sys.argv[2:])
        sys.stdout.flush()
    cache = cache_stats()
    Path(sys.argv[1]).write_text(json.dumps({
        "import_s": import_s, "spans": tracer.dump(), "cache": cache,
        "leftover": leftover_wrappers()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
