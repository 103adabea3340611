"""CLI behavior: outputs, formats, exit codes, determinism."""

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import ClassVar

import pytest

from dnachannel import capacity as cap
from dnachannel import cli
from dnachannel.montecarlo import ExperimentSpec, TrialRecord, records_to_jsonl, run
from dnachannel.channel import ChannelParams, SamplingSpec
from dnachannel.codec import CodecConfig, InnerCodeSpec
from dnachannel.rng import generator_from_seed


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_noise_free_poisson(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noise-free",
                           "--lambda", "1", "--beta", "5")
    assert code == 0
    assert "value=0.505696" in out
    assert "valid=true" in out


def test_capacity_noise_free_explicit_q0(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noise-free",
                           "--q0", "0", "--beta", "2")
    assert code == 0
    assert "value=0.5" in out


def test_capacity_noise_free_pcr(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noise-free",
                           "--lambda", "2", "--alpha", "2", "--beta", "5")
    assert code == 0
    # q0 = e^{-2(1-e^{-1})} = 0.282454 -> value = 0.574037
    assert "value=0.574037" in out


def test_capacity_noisy_trivial(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noisy",
                           "--q", "0", "--p", "0", "--beta", "5")
    assert code == 0
    assert "value=0.8" in out
    assert "valid=true" in out
    assert "margin=" in out


def test_capacity_noisy_at_half(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noisy",
                           "--q", "0.1", "--p", "0.5", "--beta", "4")
    assert code == 0
    assert out.split() == ["value=0", "valid=false", "margin=0.5"]


def test_capacity_noisy_json_format(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noisy", "--q", "0.1",
                           "--p", "0.01", "--beta", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.6022861776936799, abs=1e-12)
    assert payload["valid"] is True


def test_capacity_sdmc_bsc_shorthand(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "sdmc", "--matrix",
                           "bsc:0.11", "--q", "0.1", "--beta", "8")
    assert code == 0
    assert "value=0.337576" in out


def test_capacity_sdmc_matrix_file(capsys, tmp_path):
    path = tmp_path / "bec.txt"
    path.write_text("0.7 0.3 0.0\n0.0 0.3 0.7\n")
    code, out, _ = run_cli(capsys, "capacity", "--model", "sdmc", "--matrix",
                           f"file:{path}", "--q", "0", "--beta", "4")
    assert code == 0
    assert "value=0.45" in out  # 0.7 - 1/4


def test_capacity_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noise-free",
                           "--lambda", "1", "--beta", "5", "--precision", "9")
    assert code == 0
    assert "value=0.505696447" in out


def test_capacity_noise_free_bernoulli_q(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "noise-free",
                           "--q", "0.2", "--beta", "5")
    assert code == 0
    assert f"value={cap.noise_free_capacity(0.2, 5.0).value:.6g}" in out
    assert "valid=true" in out


def test_precision_only_where_numbers_print(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "q0-bern03", "--precision", "3"])
    assert exc.value.code == 2


def test_capacity_missing_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["capacity", "--model", "noisy", "--beta", "5"])
    assert exc.value.code == 2


def test_capacity_bad_matrix_exit_2(capsys):
    code, _, err = run_cli(capsys, "capacity", "--model", "sdmc", "--matrix",
                           "nonsense", "--q", "0", "--beta", "4")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# region / tradeoff / sweep
# ---------------------------------------------------------------------------

def test_region_csv_monotone(capsys):
    code, out, err = run_cli(capsys, "region", "--p-grid", "0.01:0.30:0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,beta_min"
    rows = [line.split(",") for line in lines[1:]]
    assert all(float(r[0]) < 0.25 for r in rows)
    betas = [float(r[1]) for r in rows]
    assert betas == sorted(betas)
    assert "skipped" in err  # p >= 1/4 rows warn on stderr
    assert abs(betas[0] - 2.3294833953) < 1e-9


def test_region_to_file(capsys, tmp_path):
    path = tmp_path / "region.csv"
    code, _, _ = run_cli(capsys, "region", "--p-grid", "0.01,0.02", "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == "p,beta_min"


def test_tradeoff_single_point(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--beta", "5", "--lambda", "1")
    assert code == 0
    assert "rs_max=0.505696" in out
    assert "rr_max=0.505696" in out


def test_tradeoff_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--beta", "5",
                           "--lambda-grid", "0.5:2.0:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,beta,rs_max,rr_max"
    assert len(lines) == 5


def test_tradeoff_cost_ratio(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--cost-ratio", "10000")
    assert code == 0
    assert "lambda_opt=9.21136" in out


def test_tradeoff_cost_ratio_with_beta(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--cost-ratio", "10000", "--beta", "5")
    assert code == 0
    lam = cap.optimal_lambda(10000.0)
    pt = cap.tradeoff_point(lam, 5.0)
    assert out.split() == [f"lambda_opt={lam:.6g}", f"rs_max={pt.rs_max:.6g}",
                           f"rr_max={pt.rr_max:.6g}"]


@pytest.mark.parametrize("argv,param", [
    (["--beta", "5", "--lambda", "nan"], "lambda"),
    (["--cost-ratio", "inf"], "cost ratio"),
    (["--beta", "nan", "--lambda", "1"], "beta"),
    (["--beta", "5", "--lambda-grid", "1,nan"], "lambda"),
])
def test_tradeoff_rejects_non_finite_values(capsys, argv, param):
    # Each used to print or write nan and exit 0.  A grid value is checked
    # as the grid is parsed, before any lambda reaches the library.
    code, out, err = run_cli(capsys, "tradeoff", *argv)
    assert code == 2 and out == ""
    reason = "grid values must be finite" if "--lambda-grid" in argv else f"{param} must be in "
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


def test_tradeoff_requires_some_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tradeoff", "--beta", "5"])
    assert exc.value.code == 2


def test_sweep_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--var", "q", "--grid", "0,0.3",
                           "--codec", "m16-identity", "--beta", "2",
                           "--trials", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,beta,p,q,capacity,achieved_rate,success_rate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == ""  # no lambda for Bernoulli sampling


@pytest.mark.parametrize("fixed, spec", [
    (["--lambda", "2"], SamplingSpec.poisson(2.0)),
    (["--q", "0.2"], SamplingSpec.bernoulli(0.2)),
])
def test_sweep_p_with_fixed_sampling(capsys, fixed, spec):
    code, out, _ = run_cli(capsys, "sweep", "--var", "p", "--grid", "0,0.01",
                           "--codec", "m16-identity", "--beta", "2",
                           "--trials", "5", *fixed)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    q0 = spec.q0()
    assert [r[2] for r in rows] == ["0", "0.01"]
    assert all(float(r[3]) == pytest.approx(q0, rel=1e-9) for r in rows)
    assert float(rows[0][4]) == pytest.approx(cap.noise_free_capacity(q0, 2.0).value,
                                              rel=1e-9)
    assert float(rows[1][4]) == pytest.approx(cap.noisy_capacity(q0, 0.01, 2.0).value,
                                              rel=1e-9)
    assert rows[0][0] == ("2" if "--lambda" in fixed else "")


def test_sweep_failed_trials_exit_1(capsys):
    # Every Poisson(1e19) trial raises OverflowError; the CSV is still written
    # and the failure is named on stderr.
    code, out, err = run_cli(capsys, "sweep", "--var", "lambda", "--grid", "1e19,1",
                             "--codec", "m16-identity", "--beta", "2", "--trials", "2")
    assert code == 1
    assert out.splitlines()[1] == "1e+19,2,0,0,0.5,0.375,nan"
    assert len(out.splitlines()) == 3
    assert err.startswith("error: 2 of 2 trials failed at lambda=1e+19; first: "
                          "trial 0: OverflowError: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("grid", ["0:inf:0.1", "-inf:1:0.1", "0:1:nan", "nan:1:1",
                                  "nan", "0.1,nan", "inf"])
def test_non_finite_grid_exit_2(capsys, grid):
    code, out, err = run_cli(capsys, "region", f"--p-grid={grid}")
    assert code == 2
    assert out == ""
    assert err == f"error: grid values must be finite, got {grid!r}\n"


@pytest.mark.parametrize("grid", ["0:1:1e-12", "-1e308:1e308:1"])
def test_oversized_grid_exit_2(capsys, grid):
    # Built as a list, the first would hold 10^12 points; the check runs first.
    code, out, err = run_cli(capsys, "region", f"--p-grid={grid}")
    assert code == 2
    assert out == ""
    assert err == f"error: grid {grid!r} has more than 1000000 points\n"


def test_grid_point_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 101)
    assert len(cli._parse_grid("0:1:0.01")) == 101
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 100)
    with pytest.raises(ValueError, match="more than 100 points"):
        cli._parse_grid("0:1:0.01")
    # A descending range is rejected, even one whose span overflows.
    with pytest.raises(ValueError, match="grid stop must be >= start"):
        cli._parse_grid("1e308:-1e308:1")


# sha256 of the README sweep example's CSV at --seed 5 --trials 20.  Like
# PRESET_DIGESTS it moves only when the random stream or the format changes.
SWEEP_DIGEST = "0ca48db6f7192ccf5680c20e73fae00511f555367b9025f51cf53ae9fa7e5603"


def test_sweep_csv_pinned_digest(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--var", "q", "--grid", "0:0.3:0.05",
                         "--codec", "m16-identity", "--beta", "2",
                         "--trials", "20", "--seed", "5", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_DIGEST


# ---------------------------------------------------------------------------
# simulate / roundtrip
# ---------------------------------------------------------------------------

def test_roundtrip_clean_preset(capsys):
    code, out, _ = run_cli(capsys, "roundtrip", "--preset", "m16-clean",
                           "--trials", "50", "--strict")
    assert code == 0
    assert out.startswith("seed=12345\n")
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["mean"] == 1.0
    assert summary["verdict"] == "PASS"


def test_simulate_writes_jsonl(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    code, out, _ = run_cli(capsys, "simulate", "--preset", "q0-bern03",
                           "--trials", "5", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 6  # 5 records + summary
    rec = json.loads(lines[0])
    assert set(rec) == {"trial", "seed", "N", "distinct_seen", "decode_success",
                        "erasures", "collisions", "flip_rate"}
    assert json.loads(lines[-1])["metric"] == "miss_fraction"


def test_simulate_byte_identical_reruns(capsys, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(capsys, "simulate", "--preset", "q0-bern03", "--trials", "4",
            "--out", str(out1))
    run_cli(capsys, "simulate", "--preset", "q0-bern03", "--trials", "4",
            "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_workers_do_not_change_output(capsys, tmp_path):
    out1, out2 = tmp_path / "w1.jsonl", tmp_path / "w8.jsonl"
    run_cli(capsys, "simulate", "--preset", "q0-bern03", "--trials", "6",
            "--workers", "1", "--out", str(out1))
    run_cli(capsys, "simulate", "--preset", "q0-bern03", "--trials", "6",
            "--workers", "8", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the --out JSONL of every README preset at --seed 5 --trials 20.
# They move only when the random stream or the record format changes, and
# such a change re-pins them on purpose.
PRESET_DIGESTS = {
    ("simulate", "q0-poisson1"): "514bf4bcd01c044fed105b2efe0533223711ec1d754f120c615dcbd2efa642d2",
    ("simulate", "q0-bern03"): "4b39d2d78ef102567da02e0c2de0d24d39b40fa8c17cb2fa1cd0930fff422878",
    ("simulate", "chernoff-l64"): "31a467cca05cf5e0570468ff124e41b3ac291fbba0e3db7eeb2703faa567921f",
    ("simulate", "coupon-m1000"): "f6599259eed59e059f91a686db328c403b6d3e1524ccabd5e9231359a898e72d",
    ("roundtrip", "m16-clean"): "1012aebe61c5d098651dabaa2fe5681db3b2b6dee81c163655e4911fe6333d0f",
    ("roundtrip", "m256-bern"): "93c6e4c54e9fb80620164b2a4e78ae28c2d1d9665fe75dc86d42ff2f33d7763c",
    ("roundtrip", "m16-rep3-noisy"): "d3c7df3a3a011d4db8f18e01fe24d361cae49048bb0e82a4aa13aaad66a877b7",
    ("roundtrip", "short-l4-m64"): "ee0069b8464f39adcd690ca8e55f7fb78aecd2844b6164914276aa02e2822e12",
}


def test_preset_digests_cover_every_preset():
    names = {name for _, name in PRESET_DIGESTS}
    assert names == set(cli.SIM_PRESET_NAMES) | set(cli.RT_PRESET_NAMES)


@pytest.mark.parametrize("command,preset", sorted(PRESET_DIGESTS))
def test_preset_jsonl_pinned_digest(capsys, tmp_path, command, preset):
    path = tmp_path / f"{preset}.jsonl"
    code, _, _ = run_cli(capsys, command, "--preset", preset, "--seed", "5",
                         "--trials", "20", "--out", str(path))
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PRESET_DIGESTS[command, preset]


@pytest.mark.parametrize("command,preset", sorted(PRESET_DIGESTS))
def test_record_seed_replays_its_trial(capsys, tmp_path, command, preset):
    # Each JSONL record, replayed alone from its seed field, comes back byte
    # for byte.  Eight trials are more than are seeded one by one.
    path = tmp_path / f"{preset}.jsonl"
    code, _, _ = run_cli(capsys, command, "--preset", preset, "--seed", "5",
                         "--trials", "8", "--out", str(path))
    assert code == 0
    presets = cli._sim_presets if command == "simulate" else cli._rt_presets
    spec = presets(5, 8)[preset]
    lines = path.read_text().splitlines(keepends=True)[:-1]  # then the summary
    assert len(lines) == 8
    for line in lines:
        rec = TrialRecord(**json.loads(line))
        row, _ = spec.settle([spec.trial(generator_from_seed(rec.seed))])[0]
        assert records_to_jsonl([TrialRecord(rec.trial, rec.seed, *row)]) == line


def test_simulate_seed_changes_output(capsys):
    _, out1, _ = run_cli(capsys, "simulate", "--preset", "q0-bern03",
                         "--trials", "3", "--seed", "1")
    _, out2, _ = run_cli(capsys, "simulate", "--preset", "q0-bern03",
                         "--trials", "3", "--seed", "2")
    assert out1 != out2
    _, out3, _ = run_cli(capsys, "simulate", "--preset", "q0-bern03",
                         "--trials", "3", "--seed", "1")
    assert out1 == out3


def test_strict_failure_exits_1(capsys, monkeypatch):
    def failing_presets(seed, trials):
        return {"m16-clean": ExperimentSpec.decode_success(
            ChannelParams(M=16, beta=2.0, p=0.0,
                          sampling=SamplingSpec.bernoulli(0.0), L=8),
            CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=12),
            trials or 5, seed, min_rate=2.0,  # unreachable
        )}

    monkeypatch.setattr(cli, "_rt_presets", failing_presets)
    code, out, _ = run_cli(capsys, "roundtrip", "--preset", "m16-clean", "--strict")
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["verdict"] == "FAIL"
    # without --strict the same FAIL exits 0
    code, _, _ = run_cli(capsys, "roundtrip", "--preset", "m16-clean")
    assert code == 0


def test_parser_is_built_once_and_presets_are_read_per_command(capsys, monkeypatch):
    parser = cli._parser()
    spec = ExperimentSpec.estimate_q0(
        ChannelParams(M=8, beta=2.0, p=0.0, sampling=SamplingSpec.bernoulli(0.5)), 2, 3)
    monkeypatch.setattr(cli, "_sim_presets", lambda seed, trials: {"q0-bern03": spec})
    code, out, _ = run_cli(capsys, "simulate", "--preset", "q0-bern03")
    assert code == 0 and cli._parser() is parser
    result = run(spec)
    assert out == (f"seed={cli.DEFAULT_SEED}\n" + records_to_jsonl(result.records)
                   + json.dumps(result.summary.to_json()) + "\n")


@dataclass(frozen=True, kw_only=True)
class OddTrialsRaise(ExperimentSpec):
    """Trial t succeeds for even t and raises for odd t; no verdict rule."""

    metric: ClassVar[str] = "success_rate"
    calls: itertools.count = field(default_factory=itertools.count)

    def trial(self, rng):
        t = next(self.calls)
        if t % 2:
            raise ZeroDivisionError(f"odd trial {t}")
        return (None, None, True), 1.0


def test_failed_trials_reported_and_strict_exits_1(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_sim_presets",
                        lambda seed, trials: {"q0-bern03": OddTrialsRaise(
                            trials=trials or 5, base_seed=seed)})
    message = "error: 2 of 5 trials failed; first: trial 1: ZeroDivisionError: odd trial 1\n"
    code, out, err = run_cli(capsys, "simulate", "--preset", "q0-bern03", "--strict")
    assert (code, err) == (1, message)
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["trials"] == 3 and "verdict" not in summary and "failed" not in summary
    # Without --strict the run exits 0, with the same report and bytes.
    out_path = tmp_path / "odd.jsonl"
    code, _, err = run_cli(capsys, "simulate", "--preset", "q0-bern03", "--out", str(out_path))
    assert (code, err) == (0, message)
    assert out_path.read_text().splitlines()[-1] == json.dumps(summary)


def test_workers_env_var_is_ignored(capsys, monkeypatch, tmp_path):
    out1, out2 = tmp_path / "env.jsonl", tmp_path / "plain.jsonl"
    monkeypatch.setenv("DNACHANNEL_WORKERS", "x")
    code, _, _ = run_cli(capsys, "simulate", "--preset", "q0-bern03", "--trials", "4",
                         "--out", str(out1))
    assert code == 0
    monkeypatch.delenv("DNACHANNEL_WORKERS")
    run_cli(capsys, "simulate", "--preset", "q0-bern03", "--trials", "4",
            "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--preset", "q0-bern03",
                             "--trials", "2", "--seed", "-1")
    assert code == 2
    assert err == "error: base_seed must be >= 0, got -1\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("command,preset", [("simulate", "q0-bern03"),
                                            ("roundtrip", "m16-clean")])
def test_bad_trials_exit_2(capsys, command, preset, trials):
    # 0 is a count, not "use the preset's default".
    code, out, err = run_cli(capsys, command, "--preset", preset, "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == f"error: trials must be in [1, 2^32], got {trials}\n"


def test_sweep_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--var", "q", "--grid", "0,0.1",
                             "--codec", "m16-identity", "--beta", "2",
                             "--trials", "2", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: base_seed must be >= 0, got -1\n"


@pytest.mark.parametrize("var,grid", [("q", "0,0.1"), ("p", "0,0.05")])
def test_sweep_bad_codebook_exit_2(capsys, monkeypatch, var, grid):
    # A noise-free trial never encodes, so the codebook is checked when the
    # spec is built; its trials used to fail one by one instead.
    bad = CodecConfig(M=4, L=4, inner=InnerCodeSpec.table_ml(4, 0), outer_k=2)
    monkeypatch.setattr(cli, "_codec_presets", lambda: {"m16-identity": bad})
    fixed = ["--q", "0"] if var == "p" else []
    code, out, err = run_cli(capsys, "sweep", "--var", var, "--grid", grid, *fixed,
                             "--codec", "m16-identity", "--beta", "2", "--trials", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: table_ml seed 0 produced duplicate codewords")
    assert err.count("\n") == 1


@pytest.mark.parametrize("beta", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["capacity", "--model", "noise-free", "--q0", "0.1"],
    ["sweep", "--var", "lambda", "--grid", "1,2", "--codec", "m16-identity",
     "--trials", "2"],
])
def test_non_finite_beta_exit_2(capsys, argv, beta):
    code, out, err = run_cli(capsys, *argv, "--beta", beta)
    assert code == 2
    assert out == ""
    assert err == f"error: beta must be in (0, inf), got {beta}\n"


def test_unknown_preset_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "nope"])
    assert exc.value.code == 2


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["capacity", "--model", "noisy", "--q", "0", "--p", "0",
                  "--beta", "5", "--bogus", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["capacity", "--help"],
    ["region", "--help"],
    ["tradeoff", "--help"],
    ["simulate", "--help"],
    ["roundtrip", "--help"],
    ["sweep", "--help"],
])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Argument errors: exit 2 with one "error:" line on stderr
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["region", "--p-grid", "0:0.1", "--out", "-"],
     "grid must be start:stop:step, got '0:0.1'"),
    (["region", "--p-grid", "0:0.1:0", "--out", "-"], "grid step must be > 0"),
    (["capacity", "--model", "sdmc", "--matrix", "bsc:1.5", "--beta", "4"],
     "bsc crossover must be in [0, 1], got 1.5"),
    (["capacity", "--model", "sdmc", "--matrix", "file:{empty}", "--beta", "4"],
     "matrix file must contain uniform rows"),
    (["capacity", "--model", "sdmc", "--matrix", "file:{ragged}", "--beta", "4"],
     "matrix file must contain uniform rows"),
    (["capacity", "--model", "sdmc", "--matrix", "file:{nan}", "--beta", "4"],
     "transition probabilities must be finite"),
    (["capacity", "--model", "sdmc", "--beta", "4"], "--model sdmc requires --matrix"),
    (["capacity", "--model", "noise-free", "--beta", "5"],
     "--model noise-free requires one of --q0, --lambda[, --alpha], --q"),
    (["tradeoff", "--lambda", "1"], "tradeoff requires --beta (except with --cost-ratio alone)"),
    (["capacity", "--model", "noise-free", "--q0", "0.1", "--beta", "4", "--precision", "-1"],
     "argument --precision: must be >= 1, got -1"),
    (["tradeoff", "--cost-ratio", "2", "--precision", "0"],
     "argument --precision: must be >= 1, got 0"),
    (["tradeoff", "--beta", "5", "--lambda-grid", "1:0:0.1"],
     "grid stop must be >= start, got '1:0:0.1'"),
    (["sweep", "--var", "lambda", "--grid", "1:0:0.1", "--codec", "m16-identity",
      "--beta", "2"], "grid stop must be >= start, got '1:0:0.1'"),
    (["region", "--p-grid", "0.3"], "region needs a grid point p < 1/4, got '0.3'"),
    (["region", "--p-grid", "-0.1"], "p must be in [0, 1/4), got -0.1"),
    (["sweep", "--var", "p", "--grid", "0:0.1:0.05", "--codec", "m16-identity", "--beta", "2",
      "--p", "0.2"], "--var p ignores --p"),
    (["sweep", "--var", "q", "--grid", "0:0.2:0.1", "--codec", "m16-identity", "--beta", "2",
      "--q", "0.5"], "--var q ignores --q"),
    (["sweep", "--var", "lambda", "--grid", "1:2:1", "--codec", "m16-identity", "--beta", "2",
      "--lambda", "3", "--q", "0.5"], "--var lambda ignores --q and --lambda"),
    (["sweep", "--var", "p", "--grid", "0:0.1:0.05", "--codec", "m16-identity", "--beta", "2",
      "--q", "0.1", "--lambda", "2"], "--var p takes --q or --lambda, not both"),
], ids=["grid form", "grid step", "bsc", "matrix file", "ragged matrix file",
        "nan matrix file", "sdmc", "noise-free", "tradeoff", "precision", "precision zero",
        "descending lambda grid", "descending sweep grid", "no region point", "negative p",
        "sweep p with --p", "sweep q with --q", "sweep lambda with --q and --lambda",
        "sweep p with --q and --lambda"])
def test_argument_errors_exit_2(capsys, tmp_path, argv, message):
    empty, ragged, nan = (tmp_path / f"{name}.txt" for name in ("empty", "ragged", "nan"))
    empty.write_text("\n")
    ragged.write_text("0.9 0.1\n0.2\n")
    nan.write_text("nan 1\n")
    argv = [a.format(empty=empty, ragged=ragged, nan=nan) for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # parser.error, after its usage lines
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    [line] = [line for line in err.splitlines() if "error: " in line]
    assert line.split("error: ", 1)[1].startswith(message)
