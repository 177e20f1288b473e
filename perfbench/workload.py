"""One iteration of a workload: ethikit CLI commands, in a fresh process.

Usage: python3 workload.py PLAN_JSON RESULT_JSON

The plan names the source tree to import ethikit from, the CLI argument
lists to pass to ``ethikit.cli.main`` one after another, and whether to
trace. The result holds each command's exit status and phase timestamps
(``time.monotonic_ns``, comparable with the launcher's clock), the peak
resident memory, and, when tracing, which spans fired. Traced runs also
write their spans next to the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def run_command(cli, argv) -> tuple[int | None, str | None]:
    """Run one command as the ``ethikit`` entry point would; never raises."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit({exc.code!r})"
    except Exception:  # recorded as a failed operation, the run goes on
        return None, traceback.format_exc(limit=-3)


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    import spans
    from ethikit import cli

    tracer = spans.Tracer() if plan["trace"] else None
    stamps = None if tracer else spans.PhaseStamps()
    patch = (tracer or stamps).install(spans.ethikit_modules())
    commands = []
    try:
        for argv in plan["commands"]:
            start = time.monotonic_ns()
            rc, error = run_command(cli, argv)
            end = time.monotonic_ns()
            entry = {"argv": argv, "rc": rc, "error": error, "start": start, "end": end}
            if stamps is not None:
                entry.update(stamps.take())
            commands.append(entry)
    finally:
        patch.undo()

    result = {
        "commands": commands,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.save(plan["spans_path"])
        result["fired"] = sorted(tracer.fired())
        result["counters"] = tracer.counters
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
