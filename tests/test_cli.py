import hashlib
import json

import numpy as np
import pytest

from cellab.cli import main, parse_fn_spec
from cellab.funalg import PiecewiseLinearFn


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# scalar-cel
# ---------------------------------------------------------------------------

def test_scalar_cel_builtin_ramp(capsys):
    code, out, _ = run_cli(capsys, "scalar-cel", "ramp:3/2pi-neg")
    assert code == 0
    assert out.strip() == "3/2·π"


def test_scalar_cel_zero_json(capsys):
    code, out, _ = run_cli(capsys, "scalar-cel", "[[0,0],[1,0]]")
    assert code == 0
    assert out.strip() == "0"


def test_scalar_cel_sampled_sine_matches_exact_refinement(capsys):
    # oracle: the same sampled branch on a 10x finer grid
    code, out, _ = run_cli(capsys, "--grid", "257", "scalar-cel", "sine")
    assert code == 0
    value = float(out.split()[0])
    ts = np.linspace(0, 1, 2561)
    fine = np.pi * np.sin(np.pi * ts)
    from cellab.cel import scalar_cel
    assert abs(value - scalar_cel(fine)) < 1e-6


def test_scalar_cel_parse_failure_exit2(capsys):
    code, _, err = run_cli(capsys, "scalar-cel", "[[0,0],[1")
    assert code == 2
    assert "col" in err or "line" in err


def test_parse_fn_spec_json_exact():
    f = parse_fn_spec('[["0", "1/3"], ["1", "0.5"]]', 17)
    assert isinstance(f, PiecewiseLinearFn)
    from fractions import Fraction
    assert f(0) == Fraction(1, 3) and f(1) == Fraction(1, 2)


def test_parse_fn_spec_bad_ramp():
    with pytest.raises(ValueError):
        parse_fn_spec("ramp:fast", 17)


# ---------------------------------------------------------------------------
# golden outputs: exact arithmetic, so the bytes are platform independent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, sha256", [
    ("witness jiang-su --m 1 --n 3",
     "2c3c5340cda5a5c5e1b6e90736756aae691f816f26b245838d39b3168f86039d"),
    ("witness jiang-su --m 1 --n 5",
     "83a63ca9ab11c2eec2a2ceafd9df4017eba2181bcbd18cd525eecf7e9d4815a8"),
    ("witness jiang-su --m 2 --n 4",
     "39ea52408d5e2272e79edc8b942422777dcf32e0f8abc07f2309a99982af90d2"),
    ("witness chi --L 100",
     "d0389ba11250324f49ed5b7a58726795f4b025e415118316963da61ba0b5e815"),
    ("tower --stages 4",
     "7a50a944cbb219b7a56d1e2d5125bc64dfac38fdd67d6c8d78d05e5ff533c7b5"),
    ("scalar-cel ramp:3/2pi-neg",
     "b473705e26205516ea0b20d943bc8bf9eb5f18a7a684f229ba7e7f851523b38e"),
    ("acceptance chi-witness",
     "a12dc31e6f91ceba5bfa28b593997fbafad983c55a4e7c2223100a7c2e3edf8b"),
    ("acceptance jiangsu-floor",
     "ac1b8369da6a6e80bee75e890a6fd769be7b8bee7fbae350d72e3a67b44a9dea"),
])
def test_golden_stdout_digest(capsys, argv, sha256):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_pan_wang_exit_and_payload(tmp_path, capsys):
    out_path = tmp_path / "pw.json"
    code, _, _ = run_cli(capsys, "witness", "pan-wang", "--k", "4",
                         "--grid", "129", "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["lower"] == "3/2·π"
    assert obj["pass"] is True


def test_witness_chi_l100(capsys):
    code, out, _ = run_cli(capsys, "witness", "chi", "--L", "100",
                           "--c", "0.3", "--d", "0.7")
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == "99/50·π"


def test_witness_jiangsu_m1_n3(capsys):
    code, out, _ = run_cli(capsys, "witness", "jiang-su", "--m", "1", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == "1·π"
    assert obj["extras"]["dichotomy_violations"] == 0


def test_witness_missing_params_exit2(capsys):
    code, _, err = run_cli(capsys, "witness", "pan-wang")
    assert code == 2
    assert "needs --k" in err


def test_witness_chi_bad_interval_exit2(capsys):
    code, _, err = run_cli(capsys, "witness", "chi", "--L", "4",
                           "--c", "0.7", "--d", "0.3")
    assert code == 2
    assert "c" in err


def test_witness_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "witness", "pan-wang",
                           "--k", "2", "--grid", "65")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("witness_id,")
    assert row.startswith("pan-wang,")


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def test_tower_stage_two_values(capsys):
    code, out, _ = run_cli(capsys, "tower", "--stages", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj[1] == {"index": 2, "p": "26", "q": "51", "d": "1326",
                      "k0": "13", "k1": "17", "k": "221",
                      "r0": "17", "r1": "13"}


def test_tower_stage_one(capsys):
    code, out, _ = run_cli(capsys, "tower", "--stages", "1")
    assert code == 0
    assert json.loads(out)[0] == {"index": 1, "p": "2", "q": "3", "d": "6"}


def test_tower_four_stages_strings(capsys):
    code, out, _ = run_cli(capsys, "tower", "--stages", "4")
    assert code == 0
    obj = json.loads(out)
    assert all(isinstance(s["d"], str) for s in obj)
    assert int(obj[3]["d"]) > 2 ** 64


def test_tower_bad_stage_count(capsys):
    code, _, err = run_cli(capsys, "tower", "--stages", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "tower --stages 9",
    "witness jiang-su --m 1 --n 9",
    "curve jiangsu-floor --max-n 9",
])
def test_stage_cap_refused_exit2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "MAX_STAGES = 8" in err


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_chi_bound(capsys):
    code, out, _ = run_cli(capsys, "curve", "chi-bound", "--max-l", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,bound_over_pi,bound_radians"
    assert lines[1].startswith("2,1,")
    assert lines[3].startswith("4,3/2,")


def test_curve_branches(capsys):
    code, out, _ = run_cli(capsys, "--grid", "17", "curve", "branches",
                           "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,h_1,h_2,h_3"
    assert len(lines) == 18


# ---------------------------------------------------------------------------
# acceptance + determinism
# ---------------------------------------------------------------------------

def test_acceptance_single_suite(capsys, tmp_path):
    out_path = tmp_path / "acc.txt"
    code, _, err = run_cli(capsys, "acceptance", "chi-witness",
                           "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "[PASS] chi-witness" in text
    assert "criteria passed" in text
    assert "(" not in text.splitlines()[0]  # no timing in the payload


def test_acceptance_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "acceptance", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_byte_identical_outputs(tmp_path, capsys):
    # fixed config (incl. seed) => identical bytes
    pairs = []
    for name in ("a", "b"):
        t = tmp_path / f"tower-{name}.json"
        w = tmp_path / f"wit-{name}.json"
        a = tmp_path / f"acc-{name}.txt"
        assert run_cli(capsys, "tower", "--stages", "3", "--out", str(t))[0] == 0
        assert run_cli(capsys, "--seed", "11", "--grid", "129", "witness",
                       "pan-wang", "--k", "3", "--out", str(w))[0] == 0
        assert run_cli(capsys, "--seed", "11", "acceptance", "chi-witness",
                       "--out", str(a))[0] == 0
        pairs.append((t.read_bytes(), w.read_bytes(), a.read_bytes()))
    assert pairs[0] == pairs[1]


def test_jobs_parallel_deterministic(tmp_path, capsys):
    # --jobs is accepted and has no effect: criteria run in order, so the
    # payloads agree
    outs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"acc-{jobs}.txt"
        code, _, _ = run_cli(capsys, "--jobs", jobs, "--seed", "3",
                             "acceptance", "chi-witness", "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_size": 65, "seed": 5,
                               "tolerances": {"eps_jitter": 3e-8}}))
    monkeypatch.setenv("CELLAB_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "witness", "pan-wang", "--k", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True
    monkeypatch.delenv("CELLAB_CONFIG")


def test_bad_config_exit2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_size": 3}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "tower",
                           "--stages", "1")
    assert code == 2
    assert "bad config" in err
