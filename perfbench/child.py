"""One checked workload run in a fresh process.

Usage: child.py CONFIG RESULT_JSON TRACE_JSON|-

Reads the generated config text, hands it to ``mdflow.cli`` and writes
its timings to RESULT_JSON.  With a TRACE_JSON path every public function
of the traced modules records spans, which are written there at the end;
with ``-`` only ``solver.step`` is timed.  The exit status is the CLI's.
"""

import json
import os
import resource
import sys
import time


def main(config_path, result_path, trace_path):
    import mdflow
    import mdflow.cli as cli
    import mdflow.solver as solver
    from spans import SpanRecorder, install, load, patch

    step_s = []
    first_step = []
    if trace_path == "-":
        step = solver.step

        def timed_step(*args, **kwargs):
            if not first_step:
                first_step.append(time.monotonic())
            t0 = time.perf_counter()
            out = step(*args, **kwargs)
            step_s.append(time.perf_counter() - t0)
            return out

        load()
        patch(step, timed_step)
    else:
        recorder = SpanRecorder(run_id=os.path.basename(os.path.dirname(result_path)))
        install(recorder)

    with open(config_path) as fh:
        text = fh.read()
    t0, c0 = time.perf_counter(), time.process_time()
    code = cli.run(cli.parse_config(text), quiet=True)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    steps = len(step_s)
    if trace_path != "-":
        recorder.dump(trace_path, wall_s=wall)
        steps = sum(span[0] == "solver.step" for span in recorder.spans)
    result = {
        "steps": steps,
        "wall_s": wall,
        "cpu_s": cpu,
        "first_step_monotonic": first_step[0] if first_step else None,
        "step_s": step_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mdflow_file": mdflow.__file__,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
