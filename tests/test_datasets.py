"""Tests for CSV/JSON persistence."""

import csv
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprobe import datasets
from pathprobe import interferometer as itf
from pathprobe import montecarlo as mc
from pathprobe.optics import (
    BeamSplitterSpec,
    DephasingSpec,
    RetarderSpec,
    RotationSpec,
)

THETA0 = math.asin(math.sqrt(0.0153))

ROUNDTRIP = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def make_config(seed=1):
    return itf.ExperimentConfig(
        rotation=RotationSpec(theta0=THETA0),
        beamsplitter=BeamSplitterSpec(reflectivity_h=0.5285, reflectivity_v=0.5285),
        retarder=RetarderSpec(),
        dephasing=DephasingSpec(v_d=0.9997702900867688),
        seed=seed,
    )


def test_header_contracts():
    assert datasets.SWEEP_HEADER == (
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
    assert datasets.BACKGROUND_HEADER == (
        "run_kind", "port", "pol_setting", "counts", "duration_s",
    )
    assert datasets.COUNTS_HEADER == (
        "run_kind", "port", "pol_setting", "phase_deg", "counts", "duration_s",
    )
    assert datasets.CORRECTED_HEADER == (
        "run_kind", "port", "pol_setting", "phase_deg", "rate", "sigma",
    )
    assert set(datasets.FIGURE_HEADERS) == {
        "fig4.csv", "fig5a.csv", "fig5b.csv", "fig6a.csv", "fig6b.csv",
    }


def _names(cls):
    return tuple(field.name for field in dataclasses.fields(cls))


def test_headers_follow_record_fields():
    # readers build records positionally, so each header is its record's
    # field order; only duration_s is renamed, and background rows drop
    # phase_deg
    counts = tuple("duration_s" if n == "duration" else n for n in _names(mc.CountRecord))
    assert datasets.SWEEP_HEADER == _names(itf.DelocalizationRecord)
    assert datasets.BLOCKED_HEADER == _names(datasets.BlockedRecord)
    assert datasets.CORRECTED_HEADER == _names(mc.CorrectedRate)
    assert datasets.COUNTS_HEADER == counts
    assert datasets.BACKGROUND_HEADER == tuple(n for n in counts if n != "phase_deg")
    for header in datasets.FIGURE_HEADERS.values():
        assert set(header) - {"reference"} <= set(datasets.SWEEP_HEADER)


def _bits(values):
    """Floats as hex strings, so that -0.0 and 0.0 differ; other cells as is."""
    return [value.hex() if isinstance(value, float) else value for value in values]


floats = st.floats(allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
optional = st.none() | floats
sweep_records = st.builds(itf.DelocalizationRecord, *[floats] * 3, *[optional] * 4, *[floats] * 6)


def sweep_results(reference=st.just(0.0)):
    records = st.lists(sweep_records, max_size=6, unique_by=lambda r: r.phase_deg)
    return st.builds(
        lambda rs, ref: itf.SweepResult(tuple(sorted(rs, key=lambda r: r.phase_deg)), ref),
        records,
        reference,
    )


def count_records(phase):
    return st.builds(
        mc.CountRecord,
        st.sampled_from(mc.KINDS + ("background",)),
        st.sampled_from(itf.PORTS),
        st.sampled_from(mc.POL_SETTINGS),
        phase,
        st.integers(0, 2**80),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )


# table name -> (record list strategy, writer, reader)
TABLES = {
    "sweep": (
        sweep_results().map(lambda result: result.records),
        lambda path, records: datasets.write_sweep_csv(path, itf.SweepResult(records, 0.0)),
        datasets.read_sweep_csv,
    ),
    "counts": (
        st.lists(count_records(finite), max_size=6),
        datasets.write_counts_csv,
        datasets.read_counts_csv,
    ),
    "background": (
        st.lists(count_records(st.just(0.0)), max_size=6),
        datasets.write_background_csv,
        datasets.read_background_csv,
    ),
    "corrected": (
        st.lists(
            st.builds(
                mc.CorrectedRate,
                st.sampled_from(mc.KINDS),
                st.sampled_from(itf.PORTS),
                st.sampled_from(mc.POL_SETTINGS),
                floats,
                floats,
                floats,
            ),
            max_size=6,
        ),
        datasets.write_corrected_csv,
        datasets.read_corrected_csv,
    ),
    "blocked": (
        st.lists(
            st.builds(datasets.BlockedRecord, finite, st.sampled_from((1, 2)), *[floats] * 5),
            max_size=6,
        ),
        datasets.write_blocked_csv,
        datasets.read_blocked_csv,
    ),
}


@pytest.mark.parametrize("table", TABLES)
@ROUNDTRIP
@given(data=st.data())
def test_tables_roundtrip_bit_identical(table, data):
    strategy, write, read = TABLES[table]
    records = tuple(data.draw(strategy))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"{table}.csv")
        write(path, records)
        back = read(path)
    assert [_bits(dataclasses.astuple(r)) for r in back] == [
        _bits(dataclasses.astuple(r)) for r in records
    ]


@ROUNDTRIP
@given(sweep_results(reference=floats))
def test_figure_csvs_roundtrip_bit_identical(result):
    with tempfile.TemporaryDirectory() as directory:
        for path in datasets.write_figure_csvs(directory, result):
            header = datasets.FIGURE_HEADERS[os.path.basename(path)]
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert tuple(rows[0]) == header
            back = [[None if cell == "" else float(cell) for cell in row] for row in rows[1:]]
            want = [
                [result.reference_flip_prob if c == "reference" else getattr(r, c) for c in header]
                for r in result.records
            ]
            assert [_bits(row) for row in back] == [_bits(row) for row in want]


def test_sweep_roundtrip_exact(tmp_path):
    result = itf.sweep(make_config())
    path = tmp_path / "sweep.csv"
    datasets.write_sweep_csv(path, result)
    header = open(path).readline().strip().split(",")
    assert tuple(header) == datasets.SWEEP_HEADER
    back = datasets.read_sweep_csv(path)
    assert len(back) == len(result.records)
    for orig, rec in zip(result.records, back):
        for field in datasets.SWEEP_HEADER:
            assert getattr(orig, field) == getattr(rec, field), field


def test_sweep_roundtrip_keeps_undefined_cells(tmp_path):
    cfg = itf.ExperimentConfig(
        rotation=RotationSpec(theta0=0.0),
        beamsplitter=BeamSplitterSpec(),
        retarder=RetarderSpec(),
        dephasing=DephasingSpec(v_d=1.0),
    )
    result = itf.sweep(cfg)
    path = tmp_path / "sweep.csv"
    datasets.write_sweep_csv(path, result)
    text = open(path).read()
    assert ",," in text  # undefined ratios stay blank, not NaN
    back = datasets.read_sweep_csv(path)
    assert all(rec.a2_plus is None and rec.a2_minus is None for rec in back)


def test_sweep_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phase_deg,p_plus\n0.0,0.5\n")
    with pytest.raises(ValueError, match="header"):
        datasets.read_sweep_csv(path)


def test_sweep_read_rejects_short_rows(tmp_path):
    result = itf.sweep(make_config())
    path = tmp_path / "sweep.csv"
    datasets.write_sweep_csv(path, result)
    lines = open(path).read().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:5])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="cells"):
        datasets.read_sweep_csv(path)


def test_background_roundtrip(tmp_path):
    table = mc.simulate_background_table(make_config(), repeats=2)
    path = tmp_path / "bg.csv"
    datasets.write_background_csv(path, table)
    back = datasets.read_background_csv(path)
    assert back == table


def test_counts_roundtrip(tmp_path):
    records = mc.mc_protocol(make_config(), repeats=2)[1]
    path = tmp_path / "counts.csv"
    datasets.write_counts_csv(path, records)
    assert datasets.read_counts_csv(path) == records


def test_corrected_roundtrip(tmp_path):
    rows = (
        mc.CorrectedRate("interference", "+", "H", 0.0, 1000.0, 4.3456),
        mc.CorrectedRate("path1", "-", "V", 90.0, -2.25, 1.5),
    )
    path = tmp_path / "corrected.csv"
    datasets.write_corrected_csv(path, rows)
    back = datasets.read_corrected_csv(path)
    assert back == rows


def test_blocked_roundtrip(tmp_path):
    records = (
        datasets.BlockedRecord(
            phase_deg=0.0, open_path=1, p_plus=0.5285, p_minus=0.4715,
            p_h_given_plus=0.0153, p_h_given_minus=0.0153, survival=0.4715,
        ),
    )
    path = tmp_path / "blocked.csv"
    datasets.write_blocked_csv(path, records)
    assert datasets.read_blocked_csv(path) == records


def test_write_json(tmp_path):
    path = tmp_path / "out.json"
    datasets.write_json(path, {"a": 1, "b": [1.5, None]})
    assert json.load(open(path)) == {"a": 1, "b": [1.5, None]}


def test_atomic_write_leaves_no_partials(tmp_path):
    result = itf.sweep(make_config())
    path = tmp_path / "sweep.csv"
    datasets.write_sweep_csv(path, result)
    datasets.write_sweep_csv(path, result)  # overwrite in place
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".partial-")]
    assert leftovers == []


def test_failed_write_keeps_existing_file(tmp_path):
    path = tmp_path / "table.csv"
    good = (mc.CorrectedRate("interference", "+", "H", 0.0, 1.0, 0.1),)
    datasets.write_corrected_csv(path, good)
    before = open(path).read()

    class Boom:
        run_kind = "interference"
        port = "+"
        pol_setting = "H"
        phase_deg = 0.0
        sigma = 0.1

        @property
        def rate(self):
            raise RuntimeError("simulated failure")

    with pytest.raises(RuntimeError):
        datasets.write_corrected_csv(path, (Boom(),))
    assert open(path).read() == before
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".partial-")]
    assert leftovers == []


def test_figure_csvs(tmp_path):
    result = itf.sweep(make_config())
    paths = datasets.write_figure_csvs(tmp_path / "figs", result)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["fig4.csv", "fig5a.csv", "fig5b.csv", "fig6a.csv", "fig6b.csv"]
    for path in paths:
        name = os.path.basename(path)
        header = tuple(open(path).readline().strip().split(","))
        assert header == datasets.FIGURE_HEADERS[name]
    # the minus-port ratio peaks at zero phase, the plus-port one at 180
    rows = [line.split(",") for line in open(os.path.join(tmp_path, "figs", "fig6a.csv")).read().splitlines()[1:]]
    by_phase = {float(r[0]): float(r[2]) for r in rows if r[2]}
    assert max(by_phase, key=by_phase.get) == 0.0
    rows = [line.split(",") for line in open(os.path.join(tmp_path, "figs", "fig6b.csv")).read().splitlines()[1:]]
    by_phase = {float(r[0]): float(r[2]) for r in rows if r[2]}
    assert max(by_phase, key=by_phase.get) == 180.0
    # fig5 sheets carry the blocked reference level alongside the data
    ref_cells = {
        line.split(",")[2]
        for line in open(os.path.join(tmp_path, "figs", "fig5a.csv")).read().splitlines()[1:]
    }
    assert ref_cells == {repr(result.reference_flip_prob)}


def test_float_cells_roundtrip_exactly(tmp_path):
    # repr-based cells preserve doubles bit for bit
    value = 0.1 + 0.2
    rows = (mc.CorrectedRate("interference", "+", "H", value, value, value),)
    path = tmp_path / "c.csv"
    datasets.write_corrected_csv(path, rows)
    back = datasets.read_corrected_csv(path)[0]
    assert back.rate == value and back.sigma == value and back.phase_deg == value
