"""Golden CLI outputs: `tests/golden/<name>.out` holds the exact stdout of
each entry in ENTRIES. Tier-1 runs every fast entry in-process, and the
numpy-free ones again in one child process where any numpy import raises.
`PYTHONPATH=src python tests/test_golden.py` runs every entry in a fresh
child process, prints a unified diff and the `--out` command that re-records
each output that moved, and then exits 1."""

import difflib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cellab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# (argv, exit code, runs without numpy)
ENTRIES = [
    ("scalar-cel ramp:3/2pi-neg", 0, True),
    ("witness chi --L 100", 0, True),
    # every Jiang-Su report with n <= 7, in (n, m) order
    *[(f"witness jiang-su --m {m} --n {n}", 0, True)
      for n in range(2, 8) for m in range(1, n)],
    ("witness pan-wang --k 8", 0, False),
    ("tower --stages 0", 2, True),
    *[(f"tower --stages {n}", 0, True) for n in (4, 5, 6, 8)],
    ("curve chi-bound --max-l 20", 0, True),
    ("curve jiangsu-floor --m 1 --max-n 4", 0, True),
    ("curve jiangsu-floor --m 1 --max-n 5", 0, True),
    ("curve branches --k 3 --grid 257", 0, False),
    ("curve branches --k 8", 0, False),
    *[(f"acceptance {name}", 0, True)
      for name in ("chi-witness", "tower", "jiangsu-floor")],
    ("acceptance oracle-dense", 0, False),
    ("acceptance all", 0, False),
]
SLOW = {"tower --stages 8", "acceptance all"}  # run by the script only
FAST = [e for e in ENTRIES if e[0] not in SLOW]

# prints {argv: [exit code, stdout]} of cellab.cli.main; "block" blocks numpy
_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from cellab.cli import main
out = {}
for argv in sys.argv[2:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out[argv] = [main(argv.split()), buf.getvalue()]
print(json.dumps(out))
"""


def golden_name(argv: str) -> str:
    return re.sub(r"[^\w.-]+", "_", argv.replace("--", "")) + ".out"


def mismatch(entry, rc: int, out: str, golden: Path = GOLDEN) -> str:
    """'' when `rc` and `out` are what `entry` pins in `golden`; otherwise a
    message naming the entry, with a unified diff and the re-record command."""
    argv, want_rc, _ = entry
    name = golden_name(argv)
    want = (golden / name).read_bytes()
    if (rc, out.encode("utf-8")) == (want_rc, want):
        return ""
    want = want.decode("utf-8", "replace")
    diff = difflib.unified_diff(want.splitlines(keepends=True),
                                out.splitlines(keepends=True),
                                f"tests/golden/{name}", f"cellab {argv}")
    return (f"MOVED {argv}: exit code {rc}, pinned {want_rc}\n{''.join(diff)}"
            f"re-record: PYTHONPATH=src python -m cellab.cli {argv}"
            f" --out tests/golden/{name}\n")


def run_child(argvs: list[str], block_numpy: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CELLAB_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "block" if block_numpy else "-", *argvs],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=600)
    if proc.returncode:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout)


def check(entries, golden: Path = GOLDEN) -> int:
    """Runs each entry in a fresh child process and prints what moved;
    returns the exit status, 1 when anything moved."""
    moved = 0
    for entry in entries:
        rc, out = run_child([entry[0]], entry[2])[entry[0]]
        problem = mismatch(entry, rc, out, golden)
        moved += bool(problem)
        print(problem or f"ok    {entry[0]}", flush=True)
    print(f"{moved} of {len(entries)} golden outputs moved")
    return 1 if moved else 0


@pytest.mark.parametrize("entry", FAST, ids=[e[0] for e in FAST])
def test_golden_stdout(entry, capsys, monkeypatch):
    monkeypatch.delenv("CELLAB_CONFIG", raising=False)
    rc = main(entry[0].split())
    problem = mismatch(entry, rc, capsys.readouterr().out)
    assert not problem, problem


def test_golden_stdout_without_numpy():
    entries = [e for e in FAST if e[2]]
    got = run_child([e[0] for e in entries], block_numpy=True)
    problems = "".join(mismatch(e, *got[e[0]]) for e in entries)
    assert not problems, problems


def test_every_golden_file_belongs_to_one_entry():
    names = [golden_name(e[0]) for e in ENTRIES]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(names)


def test_a_moved_byte_fails_the_check(tmp_path, capsys):
    entry = ("witness chi --L 100", 0, True)
    name = golden_name(entry[0])
    data = bytearray((GOLDEN / name).read_bytes())
    data[len(data) // 2] ^= 1
    (tmp_path / name).write_bytes(data)
    assert check([entry], tmp_path) == 1
    out = capsys.readouterr().out
    assert f"MOVED {entry[0]}" in out and "\n@@ " in out
    assert f"--- tests/golden/{name}\n+++ cellab {entry[0]}\n" in out
    assert f"python -m cellab.cli {entry[0]} --out tests/golden/{name}\n" in out


if __name__ == "__main__":
    sys.exit(check(ENTRIES))
