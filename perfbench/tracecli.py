"""Run one dhtlab CLI command with span tracing; used by traced cold_cli runs.

    python3 perfbench/tracecli.py SUMMARY.json <dhtlab cli arguments...>

Behaves like ``python -m dhtlab.cli <arguments>`` (same stdout bytes, same
exit code) and writes the span summary of this process to SUMMARY.json.
Importing ``dhtlab.cli`` itself is recorded as a ``cli.import`` span.
"""

import json
import sys

import bootstrap

bootstrap.setup()

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    installation = spans.Installation(tracer)
    sys.meta_path.insert(0, spans.ImportHook(installation))
    rc = 1
    try:
        with tracer.span("cli.import", "cli"):
            import dhtlab.cli
        bootstrap.check_imported()
        rc = dhtlab.cli.main(argv)
    except SystemExit as ex:          # argparse usage errors exit from inside main
        rc = ex.code if isinstance(ex.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
