"""Run one benchmark child under the span tracer.

    python3 perfbench/traced.py SPANS.json -m anderloc.cli <args...>
    python3 perfbench/traced.py SPANS.json <script.py> <args...>

The first form calls ``anderloc.cli.main(args)``, the console-script entry
point; the second runs a library script as ``__main__``.  Hooks are
installed first, the whole command runs inside the root span, and the
spans are written to SPANS.json when it ends, whatever the exit status.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import threading

from spans import ROOT, Tracer


def main() -> int:
    spans_path, target, *rest = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    if target == "-m":
        module, *args = rest
        if module != "anderloc.cli":
            raise SystemExit(f"traced.py runs only anderloc.cli, not {module}")
        import anderloc.cli

        def run():
            return anderloc.cli.main(args)
    else:
        sys.argv = [target, *rest]

        def run():
            try:
                runpy.run_path(target, run_name="__main__")
            except SystemExit as exc:
                return exc.code
            return 0

    try:
        code = tracer.wrap(ROOT, run)()
    finally:
        tmp = spans_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(threading.get_ident()), fh)
        os.replace(tmp, spans_path)
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    sys.exit(main())
