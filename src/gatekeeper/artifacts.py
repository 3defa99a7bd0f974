"""Deterministic artifact writing: CSV files and run manifests.

Every artifact is UTF-8 with LF line endings, '.' decimal separator, and
floats printed to 12 significant digits, so identical configs and seeds
produce byte-identical files.  Each CSV carries the config hash in a header
comment row.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_csv(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comments: Sequence[str] = (),
) -> Path:
    """The rows under the header, every row as long as the others."""
    return write_columns(path, header, list(zip(*rows, strict=True)), comments)


def write_columns(
    path: Path,
    header: Sequence[str],
    columns: Sequence[Sequence],
    comments: Sequence[str] = (),
) -> Path:
    """`write_csv` of the rows zip(*columns), each row by one %-format."""
    cols = [_column_format(values) for values in columns]
    row = ",".join(f for f, _ in cols)
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(row % values for values in zip(*(values for _, values in cols)))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _column_format(values: Sequence) -> tuple[str, Sequence]:
    """The %-format of a column of floats, of bools or of ints and strings,
    each printed as `fmt` prints it; any other column is `fmt` of each value."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return "%.12g", values
    if kinds == {bool}:
        return "%d", values
    if kinds <= {int, str}:
        return "%s", values
    return "%s", [fmt(v) for v in values]


def write_manifest(out_dir: Path, subcommand: str, config: dict, seed: int,
                   outputs: Sequence[str]) -> Path:
    import numpy

    from . import __version__

    manifest = {
        "subcommand": subcommand,
        "config_sha256": config_hash(config),
        "seed": seed,
        "versions": {"gatekeeper": __version__, "numpy": numpy.__version__},
        "outputs": sorted(outputs),
    }
    path = Path(out_dir) / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
