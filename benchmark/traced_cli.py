"""Run one ``selfsim`` command with the per-layer tracer installed.

    python3 benchmark/traced_cli.py SNAPSHOT.json solve --config p.cfg --out r_

Takes the same arguments as ``python -m selfsim.cli``, writes the tracer's
aggregates to SNAPSHOT.json and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    snapshot_path = Path(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import selfsim.cli

    tracer = Tracer()
    tracer.install()
    try:
        return selfsim.cli.main(sys.argv[2:])
    finally:
        snapshot_path.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
