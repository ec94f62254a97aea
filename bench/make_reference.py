"""Record the reference outputs that bench/run.py checks every call against.

    python3 bench/make_reference.py

Runs each workload once per weight-centre offset and writes the summary's
sup and ratio, the checked CSV column and, for the named cddd-exact input,
the sha256 of results.csv to bench/reference.json.  Rerun it only on the
commit whose outputs define the reference; after that the file is data the
benchmark's correctness check rests on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil

from run import HERE, OFFSETS, OUT, WORKLOADS, import_cli, read_csv_column


def main() -> None:
    cli = import_cli()
    outdir = OUT / "reference"
    outdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for wl in WORKLOADS.values():
            reference[wl.name] = {}
            for offset in (0,) + OFFSETS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(wl.argv(offset, outdir))
                summary = json.loads((outdir / "summary.json").read_text())
                csv = (outdir / "results.csv").read_bytes()
                if code != wl.code or summary["verdict"] != wl.verdict:
                    raise SystemExit(f"{wl.name} offset {offset}: exit {code}, {summary['verdict']}")
                entry = {k: summary[k] for k in ("sup", "ratio") if summary.get(k) is not None}
                if wl.column:
                    entry["column"] = read_csv_column(csv.decode(), wl.column)
                if wl.name == "cddd-exact" and offset == 0:
                    entry["csv_sha256"] = hashlib.sha256(csv).hexdigest()
                reference[wl.name][str(offset)] = entry
                print(wl.name, offset, {k: v for k, v in entry.items() if k != "column"}, flush=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
