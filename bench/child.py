"""One qrepnet CLI call in a fresh interpreter, timed from the inside.

Usage: ``python3 bench/child.py RESULT_JSON MODE [qrepnet argv...]`` with
MODE one of ``setup`` (import ``qrepnet.cli`` and stop), ``run`` (call
``qrepnet.cli.main(argv)``) or ``trace`` (the same call with the layer
trace installed; spans go to ``spans.csv`` beside RESULT_JSON).

Only ``sys`` and ``time`` are imported before ``qrepnet.cli``, so the
``ready`` timestamp marks the moment the study call could start.  It is a
``time.perf_counter`` reading, which the parent process can compare with its
own because both read the same monotonic clock.
"""

import sys
import time


def main() -> int:
    result_path, mode, *cli_argv = sys.argv[1:]
    import qrepnet.cli

    ready = time.perf_counter()
    import json
    import resource
    import traceback
    from pathlib import Path

    record = {"ready": ready, "qrepnet_file": qrepnet.cli.__file__, "exit_code": 0}
    tracer = None
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    if mode in ("run", "trace"):
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            record["exit_code"] = qrepnet.cli.main(cli_argv)
        except SystemExit as exc:
            record["exit_code"] = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            record["exit_code"] = 1
            record["error"] = traceback.format_exc()
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu0
    if tracer is not None:
        tracer.write_spans(Path(result_path).with_name("spans.csv"))
        record["trace"] = tracer.report()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["numpy"] = sys.modules["numpy"].__version__
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
