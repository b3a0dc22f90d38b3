"""Command-line entry points."""

import json
from pathlib import Path

import pytest

from gfaloha.cli import main


def test_run_tiny_sweep(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path), "--figures", "ee,delay",
               "--loads", "0.05,0.2", "--reps", "1", "--packets", "500",
               "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "fig-ee.csv").exists()
    assert (tmp_path / "fig-delay.csv").exists()
    assert not (tmp_path / "fig-se.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["seed"] == 3
    assert summary["config"]["loads"] == [0.05, 0.2]
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("wrote ") for ln in lines) == 3


def test_run_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": {"loads": [0.1], "figures": ["se"], "reps": 1,
                       "packets_per_point": 500},
    }))
    out = tmp_path / "res"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = (out / "fig-se.csv").read_text().splitlines()
    assert len(rows) == 1 + 2    # header, grant-free, granted


@pytest.mark.parametrize("argv", [
    ["run", "--figures", "ee,spectrogram"],
    ["run", "--loads", "0.2,0.1"],
    ["run", "--loads", ""],
    ["run", "--reps", "0"],
])
def test_run_bad_args_exit_2(tmp_path, argv, capsys):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--mixture", "poisson"],
                                  ["--paper-literal"]])
def test_run_removed_flags_exit_2(tmp_path, flag, capsys):
    # the analytic chain has one base law and one count law: no switch
    with pytest.raises(SystemExit) as exc:
        main(["run", *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_malformed_config_exit_2(tmp_path, capsys):
    # a float where an integer belongs is a bad config, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"reps": 1.5}}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert capsys.readouterr().err == "error: reps must be an integer\n"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("section", [
    '{"system": {"W": "200"}}', '{"energy": {"Tr": "600"}}',
    '{"experiment": {"loads": ["0.1"]}}', '{"experiment": {"cr_grid": [null]}}',
    '{"system": {"Tp": null}}', '{"system": {"Tack": NaN}}',
    '{"energy": {"Tr": Infinity}}', '{"experiment": {"loads": [NaN]}}',
    # so is a file or section that is not a JSON object, and a figure or
    # output directory that is not a string
    '[]', '{"system": []}', '{"system": "x"}', '{"experiment": [1]}',
    '{"experiment": {"figures": [["ee"]]}}', '{"experiment": {"out_dir": 5}}',
    '{"experiment": {"out_dir": null}}',
])
def test_run_non_finite_config_exit_2(tmp_path, section, capsys):
    # a string, null or non-finite number where a number belongs is a
    # bad config: one error line, no traceback and no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(section)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # a value of the wrong shape is not reported as an unknown key
    assert "unknown" not in err
    assert not (tmp_path / "res").exists()


def test_run_removed_energy_key_exit_2(tmp_path, capsys):
    # Rin fed no formula: the mean transmit power averages over the
    # whole disc of radius Rc
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"energy": {"Rin": 50.0}}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown energy keys: ['Rin']\n"
    assert not (tmp_path / "res").exists()


def test_run_missing_config_exit_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


def test_validate_receiver_smoke(tmp_path, capsys):
    # small trial counts leave the noisy suites outside their calibrated
    # operating point, so only the exit-code contract and the report
    # plumbing are pinned here; the full-size run is an acceptance check
    rc = main(["validate-receiver", "--trials", "60",
               "--out", str(tmp_path), "--seed", "1234"])
    assert rc in (0, 1)
    report = json.loads((tmp_path / "receiver-validation.json").read_text())
    out = capsys.readouterr().out
    for name in ("drift", "single_noise_free", "single_snr", "two_packet"):
        assert name in report
        assert name in out
    assert out.strip().splitlines()[-1].startswith("overall")
    assert report["drift"]["pass"]
    assert report["single_snr"]["trials"] == 60
