"""CSV reading and writing for sweep, counting and figure data.

Column layouts are part of the external contract and are validated
verbatim on read.  Each column is the record field of the same name, in
field order, except ``duration_s``, which holds ``duration``; background
rows omit ``phase_deg``, which reads back as 0.  Optional cells
(undefined conditionals) are written as empty fields.  Floats are written
with repr so that a read-back returns bit-identical values.  All writers
are atomic: the file appears complete or not at all.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter

from .interferometer import DelocalizationRecord, SweepResult
from .montecarlo import CorrectedRate, CountRecord

SWEEP_HEADER = (
    "phase_deg",
    "p_plus",
    "p_minus",
    "p_h_given_plus",
    "p_h_given_minus",
    "a2_plus",
    "a2_minus",
    "sigma_p_plus",
    "sigma_p_minus",
    "sigma_ph_plus",
    "sigma_ph_minus",
    "sigma_a2_plus",
    "sigma_a2_minus",
)
BACKGROUND_HEADER = ("run_kind", "port", "pol_setting", "counts", "duration_s")
COUNTS_HEADER = ("run_kind", "port", "pol_setting", "phase_deg", "counts", "duration_s")
CORRECTED_HEADER = ("run_kind", "port", "pol_setting", "phase_deg", "rate", "sigma")
BLOCKED_HEADER = (
    "phase_deg",
    "open_path",
    "p_plus",
    "p_minus",
    "p_h_given_plus",
    "p_h_given_minus",
    "survival",
)

FIGURE_HEADERS = {
    "fig4.csv": ("phase_deg", "p_plus", "p_minus"),
    "fig5a.csv": ("phase_deg", "p_h_given_minus", "reference", "a2_minus"),
    "fig5b.csv": ("phase_deg", "p_h_given_plus", "reference", "a2_plus"),
    "fig6a.csv": ("phase_deg", "p_h_given_minus", "a2_minus"),
    "fig6b.csv": ("phase_deg", "p_h_given_plus", "a2_plus"),
}


@dataclass(frozen=True)
class BlockedRecord:
    """Single-path run at one phase: port split, flip rates, survival."""

    phase_deg: float
    open_path: int
    p_plus: float
    p_minus: float
    p_h_given_plus: float
    p_h_given_minus: float
    survival: float

    def __post_init__(self):
        if self.open_path not in (1, 2):
            raise ValueError(f"open_path out of range: {self.open_path!r}")
        if not math.isfinite(self.phase_deg):
            raise ValueError(f"phase_deg out of range: {self.phase_deg!r}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise ValueError(f"cannot format {value!r}")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".partial-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_json(path, payload) -> None:
    """Atomically write a JSON report."""
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_table(path, header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])
    _atomic_write_text(path, buffer.getvalue())


def _read_table(path, header):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            found = tuple(next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if found != tuple(header):
            raise ValueError(f"{path}: unexpected header {found!r}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: row has {len(row)} cells, expected {len(header)}")
            rows.append(row)
    return rows


def _float_cell(cell: str):
    return None if cell == "" else float(cell)


# Cell parser per column name; any other column is a float.
_PARSERS = {"run_kind": str, "port": str, "pol_setting": str, "counts": int, "open_path": int}


def _attributes(header) -> tuple:
    return tuple("duration" if name == "duration_s" else name for name in header)


def _write_records(path, header, records) -> None:
    _write_table(path, header, map(attrgetter(*_attributes(header)), records))


def _parsed_rows(path, header, parse_cell=float):
    columns = zip(header, zip(*_read_table(path, header)))
    return zip(*[map(_PARSERS.get(name, parse_cell), cells) for name, cells in columns])


def write_sweep_csv(path, sweep_result: SweepResult) -> None:
    _write_records(path, SWEEP_HEADER, sweep_result.records)


def read_sweep_csv(path) -> tuple:
    """Sweep rows as ``DelocalizationRecord`` objects (reference not stored)."""
    return tuple(starmap(DelocalizationRecord, _parsed_rows(path, SWEEP_HEADER, _float_cell)))


def write_background_csv(path, records) -> None:
    _write_records(path, BACKGROUND_HEADER, records)


def read_background_csv(path) -> tuple:
    """Background rows as ``CountRecord`` objects (phase fixed at 0)."""
    return tuple(
        CountRecord(*row[:3], 0.0, *row[3:]) for row in _parsed_rows(path, BACKGROUND_HEADER)
    )


def write_counts_csv(path, records) -> None:
    _write_records(path, COUNTS_HEADER, records)


def read_counts_csv(path) -> tuple:
    return tuple(starmap(CountRecord, _parsed_rows(path, COUNTS_HEADER)))


def write_corrected_csv(path, records) -> None:
    _write_records(path, CORRECTED_HEADER, records)


def read_corrected_csv(path) -> tuple:
    return tuple(starmap(CorrectedRate, _parsed_rows(path, CORRECTED_HEADER)))


def write_blocked_csv(path, records) -> None:
    _write_records(path, BLOCKED_HEADER, records)


def read_blocked_csv(path) -> tuple:
    return tuple(starmap(BlockedRecord, _parsed_rows(path, BLOCKED_HEADER)))


def write_figure_csvs(outdir, sweep_result: SweepResult) -> tuple:
    """Write the five figure tables for one sweep; returns the paths.

    fig4 carries the port split, fig5a/fig5b the conditional flip rates
    against the pooled single-path reference, fig6a/fig6b the normalized
    delocalization ratios alone.  A ``reference`` column repeats the
    sweep's reference flip probability; every other column is the record
    field of the same name.
    """
    outdir = os.fspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    reference = sweep_result.reference_flip_prob
    paths = []
    for name, header in FIGURE_HEADERS.items():
        path = os.path.join(outdir, name)
        rows = [
            [reference if column == "reference" else getattr(r, column) for column in header]
            for r in sweep_result.records
        ]
        _write_table(path, header, rows)
        paths.append(path)
    return tuple(paths)
