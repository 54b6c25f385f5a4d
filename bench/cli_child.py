"""Run one trlat command in this fresh interpreter with the span wrappers installed.

Usage: python bench/cli_child.py <span file> <trlat argv...>, with PYTHONPATH
pointing at the checkout's src.  Replays the command through
trlat.cli.run(argv, out=StringIO()), prints what it printed, writes the spans
to the span file and exits with the command's exit code.
"""

import io
import json
import sys

from tracer import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import trlat.cli  # already imported by install

    out = io.StringIO()
    code = trlat.cli.run(argv, out=out)
    sys.stdout.write(out.getvalue())
    with open(span_file, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
