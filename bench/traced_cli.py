"""Run one chainrate command with the span recorder installed.

    python bench/traced_cli.py SPANS_FILE OP_ID -- SUBCOMMAND [FLAGS...]

Behaves like ``python -m chainrate.cli SUBCOMMAND [FLAGS...]`` (same stdout,
stderr and exit code) and writes the command's spans and counters to
SPANS_FILE when it ends.
"""

from __future__ import annotations

import sys

from spans import Recorder


def main() -> int:
    spans_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    import chainrate.cli as cli

    recorder = Recorder(op_id=int(op_id))
    recorder.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
