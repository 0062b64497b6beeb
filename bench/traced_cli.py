"""Run one ``bogodense`` CLI request with the span recorder installed.

Usage: ``python bench/traced_cli.py SPANS_PATH CLI_ARGS...``

The request behaves as ``python -m bogodense.cli CLI_ARGS...`` would; the
spans and the names of entry points that could not be wrapped are written
to SPANS_PATH as JSON after the request returns.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import spans


def _output_bytes(argv):
    if "--output" not in argv:
        return 0
    table = Path(argv[argv.index("--output") + 1])
    sidecar = table.with_suffix(".json")
    if sidecar == table:
        sidecar = Path(str(table) + ".summary.json")
    return sum(p.stat().st_size for p in (table, sidecar) if p.exists())


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    missing = spans.install(rec)
    import bogodense.cli

    code = bogodense.cli.main(argv)
    for span in rec.spans:
        if span.name == "cli.main":
            span.attrs["output_bytes"] = _output_bytes(argv)
    payload = {"missing": missing, "spans": [asdict(s) for s in rec.spans]}
    Path(spans_path).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
