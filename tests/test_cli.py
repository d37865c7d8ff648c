"""End-to-end tests for the command line interface."""

import hashlib
import importlib.resources
import json
import math
import os

import numpy as np
import pytest

from pathprobe import cli, datasets
from pathprobe import interferometer as itf


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- parse_config


def test_parse_config_preset():
    config = cli.parse_config("paper")
    assert config.beamsplitter.reflectivity_h == 0.5285
    assert config.beamsplitter.reflectivity_v == 0.5285
    assert abs(config.rotation.theta0 - math.asin(math.sqrt(0.0153))) < 1e-15
    assert config.photon_rate == 110000.0
    assert config.dark_rate("+") == 400.0
    assert config.dark_rate("-") == 800.0
    assert config.duration == 100.0
    phases = config.phase_grid.phases_deg()
    assert len(phases) == 41
    assert phases[0] == -22.5 and phases[-1] == 202.5
    # the preset dephasing reproduces the dark-port fringe contrast
    assert 0.999 < config.dephasing.v_d <= 1.0


def test_parse_config_defaults_are_ideal(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    config = cli.parse_config(str(path))
    assert config.rotation.theta0 == 0.1225
    assert config.beamsplitter.reflectivity_h == 0.5
    assert config.dephasing.v_d == 1.0
    assert config.retarder.phi_hv_path1 == 0.0
    assert config.seed == 1


def test_parse_config_overrides_nested(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "rotation": {"theta0": 0.2},
        "beamsplitter": {"reflectivity_v": 0.48},
        "phase_grid": {"steps": 11},
        "seed": 7,
    }))
    config = cli.parse_config(str(path))
    assert config.rotation.theta0 == 0.2
    assert config.beamsplitter.reflectivity_v == 0.48
    assert config.beamsplitter.reflectivity_h == 0.5
    assert len(config.phase_grid.phases_deg()) == 11
    assert config.seed == 7


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beamsplitter": {"reflectivity_x": 0.5}}))
    with pytest.raises(cli.ConfigError, match="beamsplitter.reflectivity_x"):
        cli.parse_config(str(path))
    path.write_text(json.dumps({"rotation_angle": 0.1}))
    with pytest.raises(cli.ConfigError, match="rotation_angle"):
        cli.parse_config(str(path))


def test_parse_config_out_of_range_value(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beamsplitter": {"reflectivity_h": 1.2}}))
    with pytest.raises(cli.ConfigError, match="reflectivity_h out of range"):
        cli.parse_config(str(path))


def test_parse_config_malformed_inputs(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(path))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"phase_grid": {"steps": 4.0}}, "config key phase_grid.steps must be an integer, got 4.0"),
        ({"seed": True}, "config key seed must be an integer, got True"),
        ({"seed": 2.0}, "config key seed must be an integer, got 2.0"),
        ({"rotation": {"theta0": "x"}}, "config key rotation.theta0 must be a number, got 'x'"),
        ({"rotation": {"theta0": {}}}, "config key rotation.theta0 must be a number, got {}"),
        ({"rotation": 5}, "config key rotation must be an object"),
        ({"out": 5}, "config key out must be a string or null, got 5"),
        ({"background_table": 0}, "config key background_table must be a string or null, got 0"),
    ],
)
def test_parse_config_type_errors(tmp_path, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(str(path))
    assert str(exc.value) == message


# ------------------------------------------------------------------ plumbing


def test_print_config_is_json(capsys):
    code, out, err = run_cli(capsys, "sweep", "--print-config")
    assert code == 0
    doc = json.loads(out)
    assert doc["beamsplitter"]["reflectivity_h"] == 0.5285
    assert doc["phase_grid"]["steps"] == 41
    assert doc["photon_rate"] == 110000.0


def _full_document(theta0, reflectivity, v_d):
    return {
        "rotation": {"theta0": theta0},
        "beamsplitter": {"reflectivity_h": reflectivity, "reflectivity_v": reflectivity},
        "retarder": {"phi_hv_path1": 0.0, "phi_hv_path2": 0.0},
        "dephasing": {"v_d": v_d},
        "gt_compensation_plus": 0.0,
        "gt_compensation_minus": 0.0,
        "photon_rate": 110000.0,
        "dark_rate_plus": 400.0,
        "dark_rate_minus": 800.0,
        "duration": 100.0,
        "phase_grid": {"start_deg": -22.5, "stop_deg": 202.5, "steps": 41},
        "seed": 1,
        "background_table": None,
        "out": None,
    }


@pytest.mark.parametrize(
    "user,document",
    [
        (None, _full_document(0.124010777984739, 0.5285, 0.9997702900867688)),
        ({}, _full_document(0.1225, 0.5, 1.0)),
    ],
    ids=["paper", "empty"],
)
def test_print_config_bytes(tmp_path, capsys, user, document):
    # key order, number formatting and defaults of the resolved document
    config = "paper"
    if user is not None:
        config = str(tmp_path / "cfg.json")
        (tmp_path / "cfg.json").write_text(json.dumps(user))
    code, out, err = run_cli(capsys, "sweep", "--config", config, "--print-config")
    assert code == 0, err
    assert out == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc,key",
    [({"out": 5}, "out"), ({"background_table": 0}, "background_table"),
     ({"background_table": 7}, "background_table"), ({"out": ["x.csv"]}, "out")],
)
def test_path_keys_must_be_strings(tmp_path, capsys, doc, key):
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    argv = ["mc-sweep", "--config", str(tmp_path / "cfg.json")]
    if key != "out":
        argv += ["--out", str(tmp_path / "x.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: config key {key} must be a string or null")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_seed_override_changes_counts(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    for out, seed in ((out_a, "3"), (out_b, "3"), (out_c, "4")):
        code, _, err = run_cli(
            capsys, "mc-sweep", "--out", str(out), "--seed", seed
        )
        assert code == 0, err
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_out_is_an_error(capsys):
    code, out, err = run_cli(capsys, "sweep")
    assert code == 1
    assert "error:" in err
    assert "--out" in err


def test_config_error_exits_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dephasing": {"v_d": 2.0}}))
    code, out, err = run_cli(
        capsys, "sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert "v_d out of range" in err


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"photon_rate": Infinity}', "photon_rate"),
        ('{"dark_rate_minus": NaN}', "dark_rate_minus"),
        ('{"duration": Infinity}', "duration"),
        ('{"photon_rate": 1e30}', "photon_rate"),
    ],
)
def test_non_finite_or_huge_rate_names_the_key(tmp_path, capsys, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "mc-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert err.startswith("error:")
    assert key in err
    assert not (tmp_path / "x.csv").exists()


# ------------------------------------------------------------------ commands


def test_sweep_command_deterministic_bytes(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, "sweep", "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "sweep", "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = datasets.read_sweep_csv(out_a)
    assert len(records) == 41
    exact = itf.sweep(cli.parse_config("paper"))
    for rec, want in zip(records, exact.records):
        assert rec.phase_deg == want.phase_deg
        assert rec.a2_minus == want.a2_minus


def test_mc_sweep_side_tables(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    counts = tmp_path / "counts.csv"
    bg = tmp_path / "bg.csv"
    code, _, err = run_cli(
        capsys,
        "mc-sweep", "--out", str(out),
        "--counts-out", str(counts),
        "--background-out", str(bg),
        "--seed", "11",
    )
    assert code == 0, err
    raw = datasets.read_counts_csv(counts)
    assert len(raw) == 3 * 2 * 2 * 41
    table = datasets.read_background_csv(bg)
    assert len(table) == 12
    records = datasets.read_sweep_csv(out)
    assert all(rec.sigma_p_plus > 0 for rec in records)


def test_mc_sweep_rejects_bad_repeats(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "mc-sweep", "--out", str(tmp_path / "x.csv"), "--repeats", "0"
    )
    assert code == 1
    assert "repeats" in err


def test_mc_sweep_bootstrap_mean_beyond_numpy_names_repeats(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"photon_rate": 4.6e16, "phase_grid": {"steps": 2}}))
    code, _, err = run_cli(
        capsys, "mc-sweep", "--config", str(path), "--repeats", "3", "--bootstrap", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert err.startswith("error:")
    assert "repeats" in err
    assert not (tmp_path / "x.csv").exists()


def test_mc_sweep_background_row_beyond_numpy_names_the_row(tmp_path, capsys):
    from pathprobe import montecarlo as mc

    table = tmp_path / "bg.csv"
    datasets.write_background_csv(
        table,
        [
            mc.CountRecord(kind, port, setting, 0.0, 10**20, 1.0)
            for kind in mc.KINDS
            for port in itf.PORTS
            for setting in mc.POL_SETTINGS
        ],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"background_table": str(table)}))
    code, _, err = run_cli(
        capsys, "mc-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert err.startswith("error:")
    assert "background_table row ('interference', '+', 'H')" in err
    assert not (tmp_path / "x.csv").exists()


def test_mc_sweep_non_positive_total_names_port_and_phase(tmp_path, capsys):
    # theta0 = 0: the H channels count background alone and go negative
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rotation": {"theta0": 0.0}}))
    code, _, err = run_cli(
        capsys, "mc-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert err.startswith("error: total corrected rate is not positive")
    assert "p(H|-) of the interference run, port '-', at phase 0.0 deg (index 4)" in err
    assert not (tmp_path / "x.csv").exists()


def test_blocked_command(tmp_path, capsys):
    out = tmp_path / "blocked.csv"
    assert run_cli(capsys, "blocked", "--out", str(out))[0] == 0
    records = datasets.read_blocked_csv(out)
    assert len(records) == 2 * 41
    open1 = [r for r in records if r.open_path == 1]
    # with path 1 open the photon reflects into "+" with probability R,
    # conditioned on surviving the blocker
    assert all(abs(r.p_plus - 0.5285) < 1e-12 for r in open1)
    assert all(abs(r.survival - 0.4715) < 1e-12 for r in open1)
    assert all(abs(r.p_h_given_minus - 0.0153) < 1e-12 for r in open1)


def test_visibility_command(tmp_path, capsys):
    code, out, err = run_cli(capsys, "visibility")
    assert code == 0, err
    payload = json.loads(out)
    assert set(payload) == {"+", "-"}
    assert abs(payload["-"]["visibility"] - 0.9629) < 1e-6
    assert abs(payload["+"]["visibility"] - 0.9691773192101134) < 1e-9
    assert abs(payload["-"]["phase_offset_deg"] - (-180.0)) < 1e-6
    # same report lands in a file when --out is given
    out_file = tmp_path / "vis.json"
    assert run_cli(capsys, "visibility", "--out", str(out_file))[0] == 0
    assert json.load(open(out_file)) == payload


def test_gt_calibrate_command(capsys):
    code, out, err = run_cli(capsys, "gt-calibrate")
    assert code == 0, err
    payload = json.loads(out)
    for port in ("+", "-"):
        entry = payload[port]
        assert set(entry) == {"open_path1", "open_path2", "compensation_deg"}
        assert abs(entry["compensation_deg"]) < 1e-6
        assert abs(entry["open_path1"]["frequency"] - 2.0) < 1e-6
        assert not entry["open_path1"]["degenerate"]


def test_srl_command(tmp_path, capsys):
    cfg = {"retarder": {"phi_hv_path1": 0.0155, "phi_hv_path2": 0.1261}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "srl", "--config", str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["theta0"] == 0.1225
    assert {(r["path"], r["port"]) for r in payload["records"]} == {
        (1, "+"), (2, "+"), (1, "-"), (2, "-"),
    }
    for port in ("+", "-"):
        delta = payload["delta_s_rl"][port]
        want = math.degrees(delta / (2 * 0.1225))
        assert abs(payload["phase_offset_deg"][port] - want) < 1e-12
    # differential retardance on path 2 drags the crossing the same way at
    # both ports
    assert payload["phase_offset_deg"]["+"] * payload["phase_offset_deg"]["-"] > 0


def test_background_simulate_and_ingest(tmp_path, capsys):
    out = tmp_path / "bg.csv"
    assert run_cli(capsys, "background", "--out", str(out), "--repeats", "2")[0] == 0
    table = datasets.read_background_csv(out)
    assert len(table) == 12
    assert all(rec.duration == 200.0 for rec in table)

    # ingest the packaged reference table and echo it losslessly
    fixture = importlib.resources.files("pathprobe") / "data" / "background_counts.csv"
    echoed = tmp_path / "echo.csv"
    code, _, err = run_cli(
        capsys, "background", "--table", str(fixture), "--out", str(echoed)
    )
    assert code == 0, err
    rows = datasets.read_background_csv(echoed)
    assert rows == datasets.read_background_csv(str(fixture))
    by_key = {(r.run_kind, r.port, r.pol_setting): r.counts for r in rows}
    assert by_key[("interference", "+", "H")] == 44423
    assert by_key[("path2", "-", "V")] == 67939


def test_subtract_command(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    bg = tmp_path / "bg.csv"
    out = tmp_path / "corrected.csv"
    code, _, err = run_cli(
        capsys,
        "mc-sweep", "--out", str(tmp_path / "mc.csv"),
        "--counts-out", str(counts), "--background-out", str(bg),
    )
    assert code == 0, err
    code, _, err = run_cli(
        capsys, "subtract", "--raw", str(counts), "--background", str(bg),
        "--out", str(out),
    )
    assert code == 0, err
    corrected = datasets.read_corrected_csv(out)
    raw = datasets.read_counts_csv(counts)
    assert len(corrected) == len(raw)
    assert all(rec.sigma > 0 for rec in corrected)


def test_subtract_missing_background_row(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    bg = tmp_path / "bg.csv"
    cfg = cli.parse_config("paper")
    from pathprobe import montecarlo as mc

    raw = mc.CountRecord("interference", "+", "H", 0.0, 1234, cfg.duration)
    datasets.write_counts_csv(counts, (raw,))
    table = [
        rec for rec in mc.simulate_background_table(cfg)
        if (rec.run_kind, rec.port, rec.pol_setting) != ("interference", "+", "H")
    ]
    datasets.write_background_csv(bg, table)
    code, _, err = run_cli(
        capsys, "subtract", "--raw", str(counts), "--background", str(bg),
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "background" in err


def test_subtract_falls_back_to_shared_background_rows(tmp_path, capsys):
    from pathprobe import montecarlo as mc

    counts = tmp_path / "counts.csv"
    bg = tmp_path / "bg.csv"
    out = tmp_path / "corrected.csv"
    raw = (
        mc.CountRecord("interference", "+", "H", 0.0, 1234, 100.0),
        mc.CountRecord("path1", "+", "H", 0.0, 999, 100.0),
    )
    table = (
        mc.CountRecord("background", "+", "H", 0.0, 200, 50.0),
        mc.CountRecord("path1", "+", "H", 0.0, 300, 100.0),
    )
    datasets.write_counts_csv(counts, raw)
    datasets.write_background_csv(bg, table)
    code, _, err = run_cli(
        capsys, "subtract", "--raw", str(counts), "--background", str(bg), "--out", str(out)
    )
    assert code == 0, err
    # a row of the raw run kind wins over the shared row
    assert datasets.read_corrected_csv(out) == (
        mc.subtract_background(raw[0], table[0]),
        mc.subtract_background(raw[1], table[1]),
    )
    datasets.write_background_csv(bg, table + table[:1])
    code, _, err = run_cli(
        capsys, "subtract", "--raw", str(counts), "--background", str(bg), "--out", str(out)
    )
    assert code == 1
    assert "duplicate background row for ('background', '+', 'H')" in err


def test_figures_command(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, _, err = run_cli(capsys, "figures", "--out", str(outdir))
    assert code == 0, err
    assert sorted(os.listdir(outdir)) == [
        "fig4.csv", "fig5a.csv", "fig5b.csv", "fig6a.csv", "fig6b.csv",
    ]
    header = open(outdir / "fig4.csv").readline().strip()
    assert header == "phase_deg,p_plus,p_minus"


# The counting contract: SHA-256 of the seed-7 ``mc-sweep`` outputs of the
# paper preset.  Any change to a Poisson mean that moves a draw, to the
# stream keying, to the estimators or to the CSV format changes them.  Pinned
# with numpy 2.4.6; a numpy release that changes its Poisson sampler would
# change them too.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_MC_SWEEP = {
    "sweep.csv": "c65fa30cc124441774a1fe1eef29b815ac20d53478ac8cfa40efd6548c54f1fc",
    "counts.csv": "344132ed22cf833b46d6b9d50ff077121a5e29c9aaa7241811cb95652d6bdb6a",
    "background.csv": "16416d7888fd06ea1229c8957aef7ac4fda5fa1041975a175ed4402c1b9998e3",
    "bootstrap_sweep.csv": "a71205040e79ad10a177604fdc2b5bd93fe784d6d0d09ca002e94c54fdf88177",
}


def test_mc_sweep_golden_digests(tmp_path, capsys):
    out = {name: str(tmp_path / name) for name in GOLDEN_MC_SWEEP}
    code, _, err = run_cli(
        capsys, "mc-sweep", "--config", "paper", "--seed", "7", "--out", out["sweep.csv"],
        "--counts-out", out["counts.csv"], "--background-out", out["background.csv"],
    )
    assert code == 0, err
    code, _, err = run_cli(
        capsys, "mc-sweep", "--config", "paper", "--seed", "7", "--bootstrap", "50",
        "--out", out["bootstrap_sweep.csv"],
    )
    assert code == 0, err
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_MC_SWEEP
    }
    assert digests == GOLDEN_MC_SWEEP, (
        f"counting digests differ: pinned under numpy {GOLDEN_NUMPY},"
        f" running numpy {np.__version__}"
    )
