"""Command-line entry points."""

import hashlib
import importlib
import json
import tomllib
from dataclasses import fields
from pathlib import Path

import pytest

from gfaloha import sigchain as sg
from gfaloha.cli import _build_parser, _config_from_args, main
from gfaloha.experiment import ExperimentConfig

ROOT = Path(__file__).parents[1]
DATA = ROOT / "tests" / "data"


def test_console_script_is_main():
    # the installed `gfaloha` command is the main the tests here call
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"gfaloha": "gfaloha.cli:main"}
    module, attr = project["scripts"]["gfaloha"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


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


@pytest.mark.parametrize("command", ["run", "validate-receiver"])
def test_every_option_names_a_config_field(command):
    # each given option reaches dataclasses.replace under its dest; any
    # other dest would raise a TypeError that main does not catch
    dests = set(vars(_build_parser().parse_args([command])))
    assert dests - {"command", "config"} <= {f.name for f in
                                             fields(ExperimentConfig)}


def test_each_flag_sets_its_config_field():
    cfg = _config_from_args(_build_parser().parse_args([
        "run", "--out", "o", "--seed", "3", "--figures", "ee,se",
        "--loads", "0.1,0.2", "--reps", "2", "--packets", "50",
        "--workers", "2"]))
    assert (cfg.out_dir, cfg.seed, cfg.figures, cfg.loads, cfg.reps,
            cfg.packets_per_point, cfg.workers) == (
        "o", 3, ("ee", "se"), (0.1, 0.2), 2, 50, 2)
    cfg = _config_from_args(_build_parser().parse_args(
        ["validate-receiver", "--trials", "9"]))
    assert cfg.receiver_trials == 9 and cfg.out_dir == "results"


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
    '{"system": {"Tmax": null}}', '{"system": {"Tack": NaN}}',
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


def test_packet_duration_follows_the_link_budget(tmp_path, capsys):
    # Tp is D / (W * log2(1 + gamma/Gamma)): twice the bits take twice
    # the time, at every replica count, and no config sets Tp itself
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"D": 200}}))
    p = ExperimentConfig.from_file(cfg).system
    assert p.Tp == 1.0
    assert all(p.with_replicas(n).Tp == 1.0 for n in (1, 2, 4))
    assert sg.payload_bits_per_packet(p) == 2 * (100 - 23)
    cfg.write_text(json.dumps({"system": {"Tp": 0.5}}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown system keys: ['Tp']\n"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("argv, section, message", [
    (["run", "--seed", "-1"], {}, "seed >= 0"),
    (["validate-receiver", "--seed", "-1"], {}, "seed >= 0"),
    # a frame cap of 800 samples cannot hold the 920-sample preamble
    (["validate-receiver"], {"system": {"Tmax": 0.2}}, "Tmax must exceed"),
    # a 0.2 s packet is 20 symbols, fewer than the 23-symbol preamble
    (["validate-receiver"], {"system": {"D": 40, "Doh": 20}},
     "Tp must exceed"),
], ids=["run-seed", "validate-receiver-seed", "validate-receiver-Tmax",
        "validate-receiver-Tp"])
def test_refused_before_any_output(tmp_path, argv, section, message, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section))
    rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "res")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("name, workers", [
    ("default", 1), ("default", 2), ("variant", 1), ("variant", 2),
], ids=["default-w1", "default-w2", "variant-w1", "variant-w2"])
def test_run_writes_the_pinned_files(tmp_path, name, workers):
    # the run writes exactly the files tests/data/<name>-run.sha256 pins,
    # byte for byte, at one and at two workers. The default run's
    # receiver-validation.json line is checked by test_acceptance's c7.
    # The variant sweep of tests/data/variant-run.json reaches what the
    # default run does not: one replica, the analytic `none` policy,
    # divergent, overload and unstable rows and the Student-t interval.
    pins = dict(reversed(line.split()) for line in
                (DATA / f"{name}-run.sha256").read_text().splitlines())
    pins.pop("receiver-validation.json", None)
    out = tmp_path / name
    argv = ["run", "--workers", str(workers), "--out", str(out)]
    if name == "variant":
        argv += ["--config", str(DATA / "variant-run.json")]
    assert main(argv) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.iterdir()}
    assert written == pins


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
    # a bit-exact packet is one the miss count found
    two = report["two_packet"]
    assert 0.0 <= two["bit_exact_rate"] <= 1.0 - two["miss_rate"]


def test_validate_receiver_at_one_sample_per_symbol(tmp_path, capsys):
    # at one sample per symbol a noise blip widened by the frame margins
    # is a frame shorter than the periodogram takes; the decoder skips
    # it, and the gates (not a crash) report the failing suites
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"Tb": 0.00125, "Fs": 800.0}}))
    assert ExperimentConfig.from_file(cfg).system.samples_per_symbol == 1
    rc = main(["validate-receiver", "--config", str(cfg), "--trials", "3",
               "--out", str(tmp_path / "res")])
    assert rc == 1
    report = json.loads((tmp_path / "res" / "receiver-validation.json")
                        .read_text())
    assert report["single_snr"]["trials"] == 3 and not report["pass"]
