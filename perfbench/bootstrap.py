"""Traced CLI request: runs inside each child process of a traced run.

    python3 perfbench/bootstrap.py SPANS.json REQUEST_ID -- <plexflow argv>

Times ``import plexflow.cli`` as the ``cli.import`` span, wraps the layer
functions, calls ``plexflow.cli.main(argv)``, writes the spans to
SPANS.json and exits with main's return code.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    spans_path, request, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: bootstrap.py SPANS.json REQUEST_ID -- ARGV...",
              file=sys.stderr)
        return 2
    from perfbench.spans import SpanRecorder, install

    recorder = SpanRecorder(request)
    with recorder.span("cli.import"):
        import plexflow.cli
    installed = install(recorder)
    try:
        return plexflow.cli.main(argv)
    finally:
        installed.uninstall()
        recorder.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main())
