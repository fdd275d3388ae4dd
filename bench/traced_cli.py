"""`python -m neutral_sampler.cli` with the traced run's wrappers installed.

Usage: traced_cli.py SPAN_FILE CLI_ARGS...

Runs the CLI in this process under a `cli.main` span and writes the spans,
counters and cache statistics to SPAN_FILE once, when the command ends.  The
exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    from neutral_sampler import cli

    rec = spans.Recorder()
    originals = spans.install(rec)
    index = rec.open("cli.main")
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse and parser.exit() leave this way
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.close(index)
        sys.stdout.flush()
        with open(path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": dict(rec.counts),
                       "caches": spans.cache_stats(originals)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
