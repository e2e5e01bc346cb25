"""Read back the CSV files that puxp.dataio writes; only the tests need this."""


def read_csv_rows(path):
    """Data rows of a CSV written by puxp.dataio (comments stripped)."""
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if header is None:
                header = text.split(",")
                continue
            rows.append(dict(zip(header, text.split(","))))
    return rows
