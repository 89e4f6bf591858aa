"""Run one hadl command in this process through `hadl.cli.main(argv)`.

    python3 child.py SRC_DIR [--spans FILE] -- ARGV...

SRC_DIR is the directory holding the `hadl` package. Without --spans the
unmodified program runs. With --spans the tracing hooks are installed
first, and the spans plus any hook targets that no longer exist are
written to FILE as JSON when the command returns.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    sys.path.insert(0, options[0])
    import hadl.cli

    if options[1:2] != ["--spans"]:
        return hadl.cli.main(command)

    from tracing import HOOKS, SpanRecorder, hooked

    recorder = SpanRecorder()
    with hooked(HOOKS, recorder) as missing:
        code = hadl.cli.main(command)
    with open(options[2], "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans, "missing": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
