import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cellab.cli import main, parse_fn_spec
from cellab.config import RunConfig, Tolerances
from cellab.funalg import PiecewiseLinearFn

README = Path(__file__).resolve().parent.parent / "README.md"


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
    from cellab.funalg import scalar_cel
    assert abs(value - scalar_cel(fine)) < 1e-6


def test_scalar_cel_parse_failure_exit2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "scalar-cel", "[[0,0],[1")
    assert code == 2
    assert "col" in err or "line" in err
    # zero denominators, sine amplitudes whose samples overflow a float,
    # JSON that is not a list of pairs, and an --out that is a directory or
    # lacks its parent directory
    for argv in (["sine:1/0"], ["sine:1e400"], ["sine:1e308"], ["ramp:1/0pi"],
                 ['[[0,"1/0"],[1,0]]'], ["5"],
                 ["[1,2]"], ["zero", "--out", str(tmp_path)],
                 ["zero", "--out", str(tmp_path / "missing" / "out.txt")]):
        code, out, err = run_cli(capsys, "scalar-cel", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def test_scalar_cel_huge_amplitudes(capsys):
    # the shift is read off the range's midpoint, however far from 0 the
    # range lies
    code, out, _ = run_cli(capsys, "scalar-cel", '[[0,"1e300"],[1,0]]')
    assert (code, out) == (0, "5" + "0" * 299 + "·π\n")
    code, out, _ = run_cli(capsys, "scalar-cel", "sine:1e12")
    assert code == 0
    assert abs(float(out.split()[0]) / (np.pi * 1e12) - 0.5) < 1e-12


def test_parse_fn_spec_json_exact():
    f = parse_fn_spec('[["0", "1/3"], ["1", "0.5"]]', 17)
    assert isinstance(f, PiecewiseLinearFn)
    from fractions import Fraction
    assert f(0) == Fraction(1, 3) and f(1) == Fraction(1, 2)


def test_parse_fn_spec_bad_ramp():
    with pytest.raises(ValueError):
        parse_fn_spec("ramp:fast", 17)


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
    for flag in ("--c", "--d"):
        code, out, err = run_cli(capsys, "witness", "chi", "--L", "4",
                                 flag, "1/0")
        assert (code, out) == (2, "")
        assert err.startswith("error:")


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
    cfg.write_text(json.dumps({"grid_size": 65, "seed": 5}))
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
    # a value of the wrong type is refused up front, before any work: a
    # count must be an int (a bool is not one), a seed and a dense limit
    # non-negative (a negative limit once dropped the sampled upper bound
    # and passed), and the config a JSON object
    for bad in ({"grid_size": "129"}, {"grid_size": 129.5},
                {"grid_size": float("nan")}, {"seed": True},
                {"seed": -1}, {"jobs": "2"}, {"dense_limit": "x"},
                {"dense_limit": 2.5}, {"dense_limit": -1}, [129]):
        cfg.write_text(json.dumps(bad))
        code, out, err = run_cli(capsys, "--config", str(cfg), "witness",
                                 "pan-wang", "--k", "3")
        assert (code, out) == (2, ""), bad
        assert "bad config" in err, bad


def test_negative_seed_flag_exit2(capsys):
    # numpy's default_rng takes no negative seed: the flag is refused as a
    # bad config before the sampled criterion starts
    code, out, err = run_cli(capsys, "--seed", "-5", "acceptance", "finite-cel")
    assert (code, out) == (2, "")
    assert "bad config" in err


def test_readme_config_keys_match_the_dataclasses():
    # README's --config paragraph lists every config key, and the fixed
    # thresholds paragraph every tolerance, in field order, and no other
    text = " ".join(README.read_text(encoding="utf-8").split())
    keys = re.search(r"A `--config` file is one JSON object with any of the"
                     r" keys (.*?)\. ", text).group(1)
    tols = re.search(r"no config key, flag or parameter sets (.*?)\. ",
                     text).group(1)
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys))
    assert named == [f.name for f in dataclasses.fields(RunConfig)]
    assert re.findall(r"`(\w+)`", tols) == [
        f.name for f in dataclasses.fields(Tolerances)]
