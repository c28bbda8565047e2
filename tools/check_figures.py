#!/usr/bin/env python3
"""Gate an s2s_figures document on the committed paper bands.

Usage: check_figures.py FIGURES.json BANDS.json

FIGURES.json is s2s_figures' stdout; BANDS.json (bench/figure_bands.json)
holds one {id, lo, hi, verdict} per headline row. Exits non-zero when a
row's measured value is missing or outside [lo, hi], a row has no band,
or a band has no row. Prints the headline table as markdown, in band
order, to stdout; EXPERIMENTS.md carries that table verbatim between its
figures markers.
"""
import json
import sys

EXPECTED_SCHEMA_VERSION = 1


def fmt(value):
    if value is None:
        return "—"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        figures = json.load(f)
    with open(argv[2], encoding="utf-8") as f:
        bands = json.load(f)["bands"]
    if figures.get("schema_version") != EXPECTED_SCHEMA_VERSION:
        print(f"check_figures: FAIL: schema_version "
              f"{figures.get('schema_version')!r}, want "
              f"{EXPECTED_SCHEMA_VERSION}", file=sys.stderr)
        return 1

    rows = {row["id"]: row for row in figures["rows"]}
    band_ids = {band["id"] for band in bands}
    failures = [f"row {rid!r} has no band" for rid in rows
                if rid not in band_ids]
    print("| Row | Paper | Measured | n | Band | Verdict |")
    print("|---|---|---|---|---|---|")
    for band in bands:
        row = rows.get(band["id"])
        if row is None:
            failures.append(f"band {band['id']!r} has no row")
            continue
        measured = row["measured"]
        if measured is None or not band["lo"] <= measured <= band["hi"]:
            failures.append(f"row {band['id']!r} = {fmt(measured)} is "
                            f"outside [{fmt(band['lo'])}, "
                            f"{fmt(band['hi'])}]")
        print(f"| `{band['id']}` | {fmt(row['paper'])} | {fmt(measured)} "
              f"| {row['n']} | [{fmt(band['lo'])}, {fmt(band['hi'])}] "
              f"| {band['verdict']} |")
    for failure in failures:
        print(f"check_figures: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
