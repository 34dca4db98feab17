"""The three workloads of the cellab benchmark.

Each workload draws its ops from a fixed pool of input specs. The pool is
generated from POOL_SEED, so it is the same in every run, and
`reference.json` holds the outcome of every pool spec recorded by
`record.py`. A run's seed picks the specs: every round draws a fixed number
of specs from each stratum (a class of specs with the same kind of work and
the same recorded outcome), so the share of each class, and with it the
refusal and failure shares, is the same for every seed.

A workload object supplies the pool, the round, the set-up of inputs, the
op itself (the only timed part) and the checks of its output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

import cellab
from cellab import cel, dimdrop, funalg, numerics, witness
from cellab.funalg import EigenvalueListField, PiecewiseLinearFn
from tracer import refusal_kind

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
POOL_SEED = 180_709_018
GRID = 2049

# Pinned tolerances for float outputs (radians).
BOUND_TOL = 1e-8      # lower, upper, epsilon_report against the reference
ORACLE_TOL = 1e-8     # geodesic bound against numpy's LAPACK eigenvalues
ROUNDING_SLACK = 1e-9  # float rounding in lower <= upper + epsilon_report
ENDPOINT_TOL = 1e-2   # constructive path endpoint error (acceptance gate)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def outcome(cls, kind="", sig="", values=None, problems=()):
    return {"cls": cls, "kind": kind, "sig": sig, "values": values or {},
            "problems": list(problems)}


def from_exception(exc: BaseException) -> dict:
    """The outcome of an op that raised: a documented refusal or a failure."""
    refusal = refusal_kind(exc)
    kind = refusal or type(exc).__name__
    return outcome("refused" if refusal else "failed", kind,
                   problems=[f"{kind}: {str(exc)[:160]}"])


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Pool, round and ops of one workload; subclasses fill them in."""

    name = ""
    round_s = 1.0   # a run of --seconds S holds round(S / round_s) rounds
    round: list[tuple[str, int]] = []

    def pool(self) -> list[dict]:
        raise NotImplementedError

    def stratum(self, spec: dict, ref: dict) -> str:
        return f"{spec['group']}:{ref['cls']}"

    def plan(self, seed: int, seconds: float, reference: dict) -> list[dict]:
        """The run's ops: round(seconds / round_s) rounds of the mix.

        Each stratum is sampled systematically over its specs sorted by
        recorded op time: evenly spaced picks from a seeded start. Every
        seed then spans the stratum's cost range alike, so the latency
        distribution, and with it the median and tail, does not depend on
        which specs a seed happens to draw.
        """
        by_stratum: dict[str, list[dict]] = {}
        for spec in self.pool():
            ref = reference[spec["id"]]
            if ref["spec"] != digest(spec):
                raise RuntimeError(f"reference is stale for {spec['id']}")
            by_stratum.setdefault(self.stratum(spec, ref), []).append(spec)
        rng = random.Random(f"{self.name}:{seed}")
        n_rounds = max(1, round(seconds / self.round_s))
        rounds: list[list[dict]] = [[] for _ in range(n_rounds)]
        for name, count in self.round:
            deck = sorted(by_stratum.get(name, []),
                          key=lambda s: (reference[s["id"]]["ms"], s["id"]))
            if len(deck) < count:
                raise RuntimeError(f"stratum {name} has {len(deck)} specs, "
                                   f"the round needs {count}")
            draws = n_rounds * count
            step = len(deck) / draws
            start = rng.random() * step
            picks = [deck[int(start + j * step) % len(deck)] for j in range(draws)]
            rng.shuffle(picks)
            for j, spec in enumerate(picks):
                rounds[j % n_rounds].append(spec)
        ops = []
        for one in rounds:
            rng.shuffle(one)
            ops.extend(one)
        return ops

    def prepare(self, spec: dict):
        """Set-up-time input for one op (input generation)."""
        return spec

    def fresh(self, spec: dict, prepared):
        """The op's own input object, made untimed just before the op."""
        return prepared

    def call(self, spec: dict, inp, traced: bool):
        raise NotImplementedError

    def judge(self, spec: dict, inp, value) -> dict:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def match(self, out: dict, ref: dict) -> dict:
        """Apply the reference check to an op outcome.

        An ok output whose values differ from the recorded ones fails. The
        outcome is consistent when its class and kind equal the recorded
        ones, or when a recorded failure (a known defect) no longer fails.
        """
        if out["cls"] == "ok" and ref["cls"] == "ok":
            bad = self.compare(out["values"], ref["values"])
            if bad:
                out = outcome("failed", "reference-mismatch", out["sig"],
                              out["values"], out["problems"] + bad)
        if ref["cls"] == "failed" and out["cls"] != "failed":
            out["consistent"] = True
        else:
            out["consistent"] = (out["cls"], out["kind"]) == (ref["cls"], ref["kind"])
        return out

    def compare(self, values: dict, ref_values: dict) -> list[str]:
        return [f"{k}: {values.get(k)!r} != recorded {v!r}"
                for k, v in ref_values.items() if values.get(k) != v]


# ---------------------------------------------------------------------------
# certify: branch lower bound, geodesic bound and constructive path
# ---------------------------------------------------------------------------

class Certify(Workload):
    """`cel.bound_sandwich` on sampled determinant-1 unitary fields, grid 2049."""

    name = "certify"
    # three rounds in a 20 s run (each takes 7-9 s on a 2-core box), so
    # that ten ops beyond the tail are the k=8, Pan-Wang k=8 and tower ops
    round_s = 6.5
    round = [
        ("pan-wang-k2:ok", 1), ("pan-wang-k3:ok", 1),
        ("pan-wang-k4:failed", 1), ("pan-wang-k8:failed", 1),
        ("tower-dense-6:ok", 1),
        ("det1-k2:ok", 1), ("det1-k3:ok", 1), ("det1-k4:ok", 1),
        ("det1-k8:ok", 1),
        ("det1-k2:refused", 1), ("det1-k3:refused", 1),
        ("det1-k4:refused", 1), ("det1-k8:refused", 1),
        ("det1-k4:failed", 1),
    ]
    # k=8 fields at these amplitudes are mostly refused, so their pool is
    # larger to hold several that certify
    pool_size = {2: 40, 3: 40, 4: 40, 8: 80}

    def pool(self):
        rng = random.Random(f"certify:{POOL_SEED}")
        specs = [{"id": f"pan-wang-k{k}", "group": f"pan-wang-k{k}", "k": k}
                 for k in (2, 3, 4, 8)]
        specs.append({"id": "tower-dense-6", "group": "tower-dense-6", "k": 6})
        for k in (2, 3, 4, 8):
            for i in range(self.pool_size[k]):
                specs.append({"id": f"det1-k{k}-{i:02d}", "group": f"det1-k{k}",
                              "k": k, "amp": 0.6 + 0.12 * rng.randrange(21),
                              "seed": rng.randrange(2 ** 31)})
        return specs

    def prepare(self, spec):
        if spec["group"].startswith("pan-wang"):
            return witness.pan_wang_witness(spec["k"]).field(GRID)
        if spec["group"] == "tower-dense-6":
            return witness.dense_stage_witness_field(dimdrop.tower(1)[0], GRID)
        rng = np.random.default_rng(spec["seed"])
        return numerics.random_unitary_field(rng, spec["k"], GRID,
                                             amplitude=spec["amp"], det_one=True)

    def fresh(self, spec, prepared):
        return numerics.SampledMatrixField(prepared.samples.copy(), "unitary")

    def call(self, spec, inp, traced):
        return cel.bound_sandwich(inp)

    def judge(self, spec, inp, b):
        k = spec["k"]
        problems = []
        if not (math.isfinite(b.lower) and b.lower >= 0):
            problems.append(f"lower {b.lower} is not a finite nonnegative value")
        if not b.lower <= b.upper + b.epsilon_report + ROUNDING_SLACK:
            problems.append(f"lower {b.lower} > upper {b.upper} + "
                            f"epsilon_report {b.epsilon_report}")
        # independent geodesic oracle: sup_t max_j |arg lambda_j(t)|
        peak = float(np.max(np.abs(np.angle(np.linalg.eigvals(inp.samples)))))
        if math.pi - peak >= cellab.DEFAULT_TOLERANCES.gap_tol:
            if b.lower > peak + b.epsilon_report + ROUNDING_SLACK:
                problems.append(f"lower {b.lower} exceeds the geodesic length "
                                f"{peak} of an explicit path")
            if b.upper > peak + ORACLE_TOL:
                problems.append(f"upper {b.upper} exceeds the geodesic oracle {peak}")
        values = {"lower": b.lower, "upper": b.upper,
                  "upper_method": b.upper_method,
                  "epsilon_report": b.epsilon_report,
                  "jitter": b.certificate.get("jitter"),
                  "limit": 2 * math.pi * (k - 1) / k}
        return outcome("failed" if problems else "ok",
                       "check" if problems else "",
                       digest([repr(b.lower), repr(b.upper), b.upper_method,
                               repr(b.epsilon_report)]), values, problems)

    def compare(self, values, ref):
        bad = []
        for key in ("lower", "upper", "epsilon_report"):
            if not abs(values[key] - ref[key]) <= BOUND_TOL:
                bad.append(f"{key} {values[key]!r} differs from recorded "
                           f"{ref[key]!r} by more than {BOUND_TOL}")
        for key in ("upper_method", "jitter"):
            if values[key] != ref[key]:
                bad.append(f"{key} {values[key]!r} != recorded {ref[key]!r}")
        # every upper is at most the constructive length, whose own
        # certified inequality was checked when the reference was recorded
        cap = values["limit"] + ref["cu_eps_report"]
        if values["upper"] > cap + ROUNDING_SLACK:
            bad.append(f"upper {values['upper']} > 2pi(k-1)/k + eps_report = {cap}")
        return bad

    def record_extra(self, spec, inp) -> tuple[dict, list[str]]:
        """The constructive path's own certificate, checked at recording."""
        res = cel.cu_upper_bound_path(inp)
        limit = 2 * math.pi * (spec["k"] - 1) / spec["k"]
        problems = []
        if res.length > limit + res.eps_report:
            problems.append(f"constructive length {res.length} > {limit} + "
                            f"{res.eps_report}")
        if res.endpoint_error > ENDPOINT_TOL:
            problems.append(f"endpoint error {res.endpoint_error} > {ENDPOINT_TOL}")
        return {"cu_length": res.length, "cu_eps_report": res.eps_report,
                "cu_endpoint_error": res.endpoint_error,
                "cu_repairs": res.n_repairs}, problems

    def warmup(self):
        rng = np.random.default_rng(POOL_SEED)
        u = numerics.random_unitary_field(rng, 2, 129, amplitude=0.5, det_one=True)
        cel.bound_sandwich(u)


# ---------------------------------------------------------------------------
# exact: sorted merge, tower primes, witness reports
# ---------------------------------------------------------------------------

def random_plf(rng: random.Random, lo: Fraction, hi: Fraction,
               knots: tuple[int, int] = (2, 5), denom: int = 64
               ) -> PiecewiseLinearFn:
    n_knots = rng.randint(*knots)
    ts = sorted(rng.sample(range(1, denom), n_knots - 2))
    bps = [Fraction(0)] + [Fraction(t, denom) for t in ts] + [Fraction(1)]
    vals = [Fraction(rng.randint(int(lo * denom), int(hi * denom)), denom)
            for _ in bps]
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


def plf_family(spec: dict) -> list[tuple[PiecewiseLinearFn, int]]:
    rng = random.Random(spec["seed"])
    w = Fraction(spec["w"])
    return [(random_plf(rng, -w, w, knots=tuple(spec["knots"])), rng.randint(1, 3))
            for _ in range(spec["branches"])]


def chi_inputs(spec: dict):
    """(L, x, c, d) with one branch of x covering [c, d]."""
    rng = random.Random(spec["seed"])
    c = Fraction(rng.randint(0, 60), 100)
    d = c + Fraction(rng.randint(10, 100 - int(c * 100)), 100)
    cover = PiecewiseLinearFn.from_pairs(
        [(0, Fraction(rng.randint(0, int(c * 100)), 100)),
         (1, Fraction(rng.randint(math.ceil(d * 100), 100), 100))])
    entries = [(cover, rng.randint(1, 3))]
    entries += [(random_plf(rng, Fraction(0), Fraction(1)), rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))]
    L = max(2, int(10 ** rng.uniform(0.3, 4.0)))
    return L, funalg.symbolic_element(entries), c, d


def sample_points(n: int = 16) -> list[Fraction]:
    return [Fraction(2 * j + 1, 2 * n) for j in range(n)]


class Exact(Workload):
    """Exact rational and big-integer layers: no eigensolver."""

    name = "exact"
    round_s = 6.0
    # The 8-branch merges sit in the middle of the latency order (as many
    # ops below them as above), so the median falls inside that class;
    # fewer than ten ops (tower-7 and the 24-branch merges) run longer than
    # the n=7 Jiang-Su reports, so the tail falls inside those. At the
    # benchmark's run length both classes are drawn whole (12 and 6 specs),
    # so neither statistic depends on which specs a seed draws.
    round = [
        ("plf-b8:ok", 4), ("plf-b12:refused", 1),
        ("plf-b16:ok", 1), ("plf-b24:ok", 1),
        ("jiangsu-n7:ok", 2), ("jiangsu-small:ok", 2), ("tower-7:ok", 1),
        ("chi:ok", 3), ("chi:failed", 1),
    ]

    def pool(self):
        rng = random.Random(f"exact:{POOL_SEED}")
        specs = []
        for b in (8, 12, 16, 24):
            for w in ("1", "5/4"):
                for i in range(8):
                    # 3 or 4 knots per branch: merge times of one family
                    # size then vary less, which steadies median and tail
                    specs.append({"id": f"plf-b{b}-w{w.replace('/', '_')}-{i}",
                                  "group": f"plf-b{b}", "branches": b, "w": w,
                                  "knots": [3, 4], "seed": rng.randrange(2 ** 31)})
        for n in range(2, 8):
            for m in range(1, n):
                group = "jiangsu-n7" if n == 7 else "jiangsu-small"
                specs.append({"id": f"jiangsu-{m}-{n}", "group": group,
                              "m": m, "n": n})
        specs.append({"id": "tower-7", "group": "tower-7", "n": 7})
        for i in range(40):
            specs.append({"id": f"chi-{i:02d}", "group": "chi",
                          "seed": rng.randrange(2 ** 31)})
        for i in range(8, 12):
            specs.append({"id": f"plf-b8-w1-{i}", "group": "plf-b8",
                          "branches": 8, "w": "1", "knots": [3, 4],
                          "seed": rng.randrange(2 ** 31)})
        return specs

    def prepare(self, spec):
        if spec["group"].startswith("plf"):
            return plf_family(spec)
        if spec["group"] == "chi":
            return chi_inputs(spec)
        return spec

    def call(self, spec, inp, traced):
        group = spec["group"]
        if group.startswith("plf"):
            merged = funalg.merge_sorted_branches(inp)
            variation = max(f.max_value() - f.min_value() for f, _ in merged)
            bound = cel.cel_lower_ordered_log(
                EigenvalueListField(exact=tuple(f for f, _ in merged)))
            return merged, variation, bound
        if group.startswith("jiangsu"):
            return witness.jiangsu_witness(spec["m"], spec["n"])
        if group == "tower-7":
            stages = dimdrop.tower(spec["n"])
            for prev, cur in zip(stages, stages[1:]):
                dimdrop.validate_stage_step(prev, cur)
            return stages
        L, x, c, d = inp
        return witness.chi_witness(L, x, c, d)[1]

    def judge(self, spec, inp, value):
        group = spec["group"]
        problems = []
        if group.startswith("plf"):
            merged, variation, bound = value
            if sum(m for _, m in merged) != sum(m for _, m in inp):
                problems.append("merged multiplicities do not add up")
            for t in sample_points():
                want = sorted(v for f, m in inp for v in [f(t)] * m)
                got = [v for f, m in merged for v in [f(t)] * m]
                if got != want:
                    problems.append(f"merged branches are not the sorted values at t={t}")
                    break
            body = {"merged": [[f.to_json_obj(), str(m)] for f, m in merged],
                    "variation": str(variation), "lower_pi": str(bound.lower_pi),
                    "shift": bound.certificate["shift"]}
        elif group.startswith("jiangsu"):
            if not value.passed:
                problems.append("jiang-su report does not pass")
            body = value.to_json_obj()
        elif group == "tower-7":
            s2 = value[1]
            if (s2.p, s2.q, s2.d, s2.k0, s2.k1, s2.r0, s2.r1) != \
                    (26, 51, 1326, 13, 17, 17, 13):
                problems.append("stage 2 differs from (26,51,1326,13,17,17,13)")
            if any(s.d != s.p * s.q or math.gcd(s.p, s.q) != 1 for s in value):
                problems.append("a stage violates d = pq with coprime p, q")
            body = dimdrop.tower_to_json_obj(value)
        else:
            L = inp[0]
            if value.lower_pi != 2 - Fraction(2, L):
                problems.append(f"chi lower {value.lower_pi} != 2 - 2/{L}")
            if not (value.passed and value.cu.passed and value.cu.exact):
                problems.append("chi report or its exact certificate fails")
            body = value.to_json_obj()
        sig = digest(body)
        return outcome("failed" if problems else "ok",
                       "check" if problems else "", sig, {"digest": sig},
                       problems)

    def warmup(self):
        rng = random.Random(POOL_SEED)
        entries = [(random_plf(rng, Fraction(-1), Fraction(1)), 1) for _ in range(4)]
        funalg.merge_sorted_branches(entries)
        x = funalg.symbolic_element([(PiecewiseLinearFn.identity(), 1)])
        witness.chi_witness(4, x, Fraction(3, 10), Fraction(7, 10))


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per request
# ---------------------------------------------------------------------------

CASES = os.path.join("perfbench", "cases")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("CELLAB_CONFIG", None)
    return env


def run_child(cmd: list[str]) -> tuple[int, bytes, bytes]:
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=cli_env())
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err


class Cli(Workload):
    """`python -m cellab.cli` requests, one fresh process each."""

    name = "cli"
    round_s = 9.5
    round = [
        ("scalar:ok", 2), ("chi:ok", 1), ("curve-light:ok", 1),
        ("jiangsu:ok", 1), ("pan-wang:ok", 1), ("tower:ok", 1),
        ("curve-branches:ok", 1), ("acceptance:ok", 1),
        ("oracle-dense:ok", 1), ("malformed:refused", 1),
        ("malformed:failed", 1),
    ]

    def pool(self):
        rng = random.Random(f"cli:{POOL_SEED}")
        specs = []

        def add(group, argv, expect=0):
            specs.append({"id": f"{group}-{len(specs):02d}", "group": group,
                          "argv": argv, "expect": expect})

        add("scalar", ["scalar-cel", "zero"])
        for _ in range(6):
            p, q = rng.randint(1, 9), rng.randint(1, 9)
            add("scalar", ["scalar-cel", f"ramp:{p}/{q}pi" + rng.choice(["", "-neg"])])
        for _ in range(6):
            knots = [[0, f"{rng.randint(-9, 9)}/4"]]
            knots += [[f"{t}/8", f"{rng.randint(-9, 9)}/4"]
                      for t in sorted(rng.sample(range(1, 8), rng.randint(0, 3)))]
            knots.append([1, f"{rng.randint(-9, 9)}/4"])
            add("scalar", ["scalar-cel", json.dumps(knots, separators=(",", ":"))])
        for _ in range(3):
            add("scalar", ["scalar-cel", f"sine:{rng.randint(1, 12)}/4"])
        for _ in range(8):
            c = rng.randint(0, 6)
            d = rng.randint(c + 1, 10)
            add("chi", ["witness", "chi", "--L", str(rng.randint(2, 5000)),
                        "--c", f"{c}/10", "--d", f"{d}/10"])
        for _ in range(4):
            add("curve-light", ["curve", "chi-bound", "--max-l",
                                str(rng.randint(8, 200))])
        add("curve-light", ["curve", "jiangsu-floor", "--m", "1", "--max-n", "4"])
        add("curve-light", ["curve", "jiangsu-floor", "--m", "1", "--max-n", "5"])
        for n in (4, 5):
            add("jiangsu", ["witness", "jiang-su", "--m", "1", "--n", str(n)])
        add("pan-wang", ["witness", "pan-wang", "--k", "3", "--grid", "257"])
        for n in (5, 6):
            add("tower", ["tower", "--stages", str(n)])
        for k in (2, 3, 4):
            add("curve-branches", ["curve", "branches", "--k", str(k), "--grid", "257"])
        add("acceptance", ["acceptance", "chi-witness"])
        add("acceptance", ["acceptance", "jiangsu-floor"])
        add("oracle-dense", ["acceptance", "oracle-dense"])
        for argv in (["no-such-command"], ["tower", "--stages", "0"],
                     ["witness", "pan-wang"], ["witness", "chi"],
                     ["scalar-cel", "not-a-function"],
                     ["witness", "chi", "--L", "4", "--c", "9/10", "--d", "1/10"],
                     ["--grid", "5", "scalar-cel", "zero"],
                     ["curve", "chi-bound", "--max-l", "many"],
                     # known defects: documented exit code 2, traceback and 1
                     ["curve", "branches", "--k", "1"],
                     ["--config", os.path.join(CASES, "unknown_key.json"),
                      "tower", "--stages", "2"],
                     ["--config", os.path.join(CASES, "bad_tolerance.json"),
                      "scalar-cel", "zero"]):
            add("malformed", argv, expect=2)
        return specs

    def call(self, spec, inp, traced):
        if not traced:
            rc, out, err = run_child([sys.executable, "-m", "cellab.cli", *spec["argv"]])
            return rc, out, err, None
        driver = os.path.join(HERE, "cli_driver.py")
        rc, out, err = run_child([sys.executable, driver, *spec["argv"]])
        if rc != 0:
            raise RuntimeError(f"cli driver failed: {err.decode()[-400:]}")
        rep = json.loads(out.decode("utf-8").splitlines()[-1])
        return rep["rc"], rep["stdout"].encode("utf-8"), err, rep

    def judge(self, spec, inp, value):
        rc, out, err, _ = value
        sig = digest({"rc": rc, "stdout": hashlib.sha256(out).hexdigest()})
        problems = []
        if b"Traceback" in err:
            problems.append("stderr holds a traceback")
        if rc != spec["expect"]:
            problems.append(f"exit code {rc}, documented {spec['expect']}")
            return outcome("failed", f"rc={rc}", sig, {"digest": sig}, problems)
        if rc == 2:
            if out:
                problems.append("a refused request wrote to stdout")
            return outcome("failed" if problems else "refused", "rc=2", sig,
                           {"digest": sig}, problems)
        return outcome("failed" if problems else "ok", "check" if problems else "",
                       sig, {"digest": sig}, problems)

    def warmup(self):
        run_child([sys.executable, "-m", "cellab.cli", "scalar-cel", "zero"])


WORKLOADS = {w.name: w for w in (Certify(), Exact(), Cli())}
