"""Child process of the ``figures`` workload.

Protocol, one JSON object per line:

1. after its imports, the child prints ``{"ready": true, "scenarios":
   [...]}`` (every registered scenario name);
2. it reads one job line: ``{"run": [[name, scale], ...]}`` or
   ``{"exit": true}``;
3. for a run, it prints one line per scenario, ``{"name", "start_ns",
   "end_ns", "scalars"}`` (or ``"error"``), in job order, on one
   ``Engine(workers=1)`` without a result cache, then ``{"done": true}``
   and waits for a last line before it exits, so its memory can be read
   while it is alive.
"""

import json
import sys
import time


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    from repro.exec import Engine
    from repro.exec.figs import SCENARIOS, run_scenario

    _emit({"ready": True, "scenarios": list(SCENARIOS)})
    job = json.loads(sys.stdin.readline() or '{"exit": true}')
    if "run" not in job:
        return 0
    engine = Engine(workers=1)
    for name, scale in job["run"]:
        start = time.perf_counter_ns()
        try:
            _rich, scalars = run_scenario(name, scale=scale, engine=engine)
        except Exception as exc:  # reported to the parent as a failure
            _emit({"name": name, "start_ns": start,
                   "end_ns": time.perf_counter_ns(),
                   "error": f"{type(exc).__name__}: {exc}"})
            continue
        _emit({"name": name, "start_ns": start,
               "end_ns": time.perf_counter_ns(), "scalars": scalars})
    _emit({"done": True})
    sys.stdin.readline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
