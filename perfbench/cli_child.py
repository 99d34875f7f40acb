"""Run the subgrad command line in this process, timed or traced.

    python3 perfbench/cli_child.py {time|trace} REPORT.json -- SUBGRAD-ARGS...

``time`` records the duration of every ``cli.run_scenario`` call (the
per-item latency of a corpus); ``trace`` installs the layer wrappers from
``tracing.py`` and also writes the spans next to REPORT.json.  Either way the
reference kernel of ``gauge.py`` runs first and last, so the caller can scale
this process's times.  The report is written even when the command crashes;
the command's own exit status and traceback are left as they are.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gauge import reference_s  # noqa: E402


def main() -> int:
    mode, report = sys.argv[1], Path(sys.argv[2])
    if mode not in ("time", "trace") or sys.argv[3] != "--":
        raise SystemExit("usage: cli_child.py {time|trace} REPORT.json -- ARGS...")
    ref_before = reference_s()
    from subgrad import cli

    tracer = None
    durations: list[float] = []
    if mode == "trace":
        from tracing import Tracer, targets

        tracer = Tracer()
        tracer.install(targets())
    else:
        run_scenario = cli.run_scenario

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_scenario(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)

        cli.run_scenario = timed
    start = time.perf_counter()
    try:
        return cli.main(sys.argv[4:])
    finally:
        wall = time.perf_counter() - start
        out: dict = {"wall_s": wall, "item_s": durations, "ref_s": [ref_before, reference_s()]}
        if tracer is not None:
            raw = tracer.raw()
            out["raw"] = raw
            out["accounting_ok"] = raw["_self_total_s"] <= wall
            tracer.dump(report.with_suffix(".npz"))
        report.write_text(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
