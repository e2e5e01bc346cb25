"""Read back the CSV files that puxp.dataio writes; only the tests need this."""

import csv


def read_csv_rows(path):
    """Data rows of a CSV written by puxp.dataio (comments stripped)."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        lines = [line for line in f if line.strip() and not line.lstrip().startswith("#")]
    header, *rows = csv.reader(lines)
    return [dict(zip(header, row)) for row in rows]
