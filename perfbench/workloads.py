"""The three benchmark workloads.

Each workload builds one *pass*: a fixed composition of cases whose
matrices come from the seed.  The harness replays the pass a fixed number
of times; ``nominal_pass_s``, the time of one pass with one BLAS thread on
a 2-vCPU x86-64 virtual machine, turns the requested seconds into passes,
and ``min_passes`` sets a floor.  Two passes give every case a repeat;
``cli-files`` takes four, because its calls are few and long and each
case's best-of-passes latency needs more tries to miss the host's slow
spells.
``decide-small`` and ``construct-large`` give every pass after the first
fresh inputs by a seeded unitary similarity (square) or equivalence
(rectangular), which preserves every order, rank and inverse relation the
checks rely on, so no input repeats within a run.
``cli-files`` replays the same files, which is what the byte-determinism
check needs.

Every call goes through a module attribute looked up at call time (for
example ``minusord.sums.fill_fishkind_pinv``), so the tracer's wrappers see
the call.  Scales span 1e-12 to 1e12 in every workload on purpose: the
small scales expose the defects listed in ROADMAP item 3, and those calls
count as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

import minusord.additivity
import minusord.cli
import minusord.generate
import minusord.lsq
import minusord.mmio
import minusord.orders
import minusord.subspaces
import minusord.sums

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)

#: Oracle tolerance, relative and scaled by one plus the condition number
#: of the sum (the bound acceptance criterion 06 uses at unit scale).
ORACLE_RTOL = 1e-8

#: Tolerance of the defining identities of reflexive, group and core
#: inverses, relative to the norms of the factors in each product.
IDENTITY_RTOL = 1e-8


@dataclass
class Case:
    label: str            # call type; groups latencies and floors in the detail output
    data: dict
    truth: object = None
    square: bool = True


def _cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def _unitary(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rel(x, ref) -> float:
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(x - ref) / denom) if denom else float(np.linalg.norm(x))


def _cond(total: np.ndarray) -> float:
    """Condition number on the numerical range, with numpy's rank cutoff."""
    s = np.linalg.svd(total, compute_uv=False)
    kept = s[s > s[0] * max(total.shape) * np.finfo(float).eps]
    return float(kept[0] / kept[-1]) if kept.size else 0.0


def _pinv_ok(x, total) -> bool:
    return _rel(x, np.linalg.pinv(total)) <= ORACLE_RTOL * (1.0 + _cond(total))


def _identity_ok(lhs, rhs, *factors) -> bool:
    scale = float(np.prod([np.linalg.norm(f) for f in factors]))
    return float(np.linalg.norm(lhs - rhs)) <= IDENTITY_RTOL * max(scale, np.finfo(float).tiny)


def _draw(kind, rng, m, n, r):
    """An ordered pair from ``minusord.generate``; sharp and core pairs are square."""
    generator = getattr(minusord.generate, f"{kind}_pair")
    if kind in ("sharp", "core"):
        return generator(rng, n, r, r)
    return generator(rng, m, n, r, r)


class _Transform:
    """One seeded unitary change of basis per shape: X -> U X W, with W = U*
    for square shapes so that similarity-based orders survive."""

    def __init__(self, rng):
        self.rng = rng
        self.pairs: dict = {}

    def factors(self, m, n, square):
        key = (m, n, square)
        if key not in self.pairs:
            u = _unitary(self.rng, m)
            w = u.conj().T if square else _unitary(self.rng, n)
            self.pairs[key] = (u, w)
        return self.pairs[key]

    def matrix(self, x, square):
        u, w = self.factors(*x.shape, square)
        return u @ x @ w


# --------------------------------------------------------------------------
# decide-small


MINUS_FAMILY = ("minus", "left_minus", "right_minus", "weak_minus", "range_additive")
HOLDS = {
    "minus": MINUS_FAMILY,
    "star": MINUS_FAMILY + ("star", "left_star", "right_star"),
    "sharp": MINUS_FAMILY + ("sharp",),
    "core": MINUS_FAMILY + ("core", "star", "left_star", "right_star"),
}
UNRELATED = ("perturb", "double", "rank_one")
# (square, rectangular) shape per size class
SIZE_CLASSES = (((4, 4), (6, 4)), ((12, 12), (14, 10)), ((24, 24), (28, 22)), ((40, 40), (48, 40)))


def _decide_combos():
    combos = [("related", kind, pred) for kind, preds in HOLDS.items() for pred in preds]
    preds = minusord.orders.ORDER_NAMES + ("range_additive",)
    combos += [("unrelated", kind, pred) for kind in UNRELATED for pred in preds]
    return combos


class DecideSmall:
    name = "decide-small"
    nominal_pass_s = 1.4
    min_passes = 2

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        combos = _decide_combos()
        cases = []
        for ci, (relation, kind, pred) in enumerate(combos):
            for si, scale in enumerate(SCALES):
                for copy in range(2):
                    cases.append(self._case(rng, relation, kind, pred, scale,
                                            (ci + si + 2 * copy) % len(SIZE_CLASSES),
                                            (ci + copy) % 2 == 0))
        order = rng.permutation(len(cases))
        return [cases[i] for i in order]

    @staticmethod
    def _case(rng, relation, kind, pred, scale, size_class, prefer_square):
        """One decision: pair ``relation``/``kind`` checked with ``pred``."""
        square_only = pred in ("sharp", "core") or kind in ("sharp", "core")
        square = square_only or prefer_square
        m, n = SIZE_CLASSES[size_class][0 if square else 1]
        r = max(1, min(m, n) // 3)
        if relation == "related":
            a, b = _draw(kind, rng, m, n, r)
            # is_range_additive takes the summands, the orders A and A + B
            first, second, truth = a, b if pred == "range_additive" else a + b, True
        else:
            a = _draw("sharp" if pred in ("sharp", "core") else "minus", rng, m, n, r)[0]
            if kind == "perturb":
                second = a + _cgauss(rng, m, n)
            elif kind == "double":
                second = 2.0 * a
            else:
                second = _cgauss(rng, m, 1) @ _cgauss(rng, 1, n)
            first = a
            truth = False
            if pred == "range_additive":
                # summands (A, B2 - A): R(B2) = R(A) + R(B2 - A) holds by
                # construction when a full-rank perturbation spans C^m
                # (m <= n) and for 2A, and fails for the rank-one B2
                second = second - a
                truth = kind == "double" or (kind == "perturb" and m <= n)
        return Case(f"{relation}:{pred}",
                    {"pred": pred, "a": scale * first, "b": scale * second},
                    truth, square)

    def refresh(self, cases, rng):
        t = _Transform(rng)
        return [Case(c.label, {**c.data, "a": t.matrix(c.data["a"], c.square),
                               "b": t.matrix(c.data["b"], c.square)}, c.truth, c.square)
                for c in cases]

    def call(self, case):
        d = case.data
        if d["pred"] == "range_additive":
            return minusord.additivity.is_range_additive(d["a"], d["b"])
        return minusord.orders.order_predicate(d["pred"])(d["a"], d["b"])

    def fingerprint(self, case, result):
        return None

    def check(self, case, result) -> bool:
        holds = result if isinstance(result, bool) else result.holds
        return holds == case.truth

    def floor(self, case):
        a, b = case.data["a"], case.data["b"]
        for x in (a, b, b - a):
            np.linalg.matrix_rank(x)

    def warm_up(self):
        a, b = minusord.generate.minus_pair(0, 6, 5, 2, 2)
        for pred in minusord.orders.ORDER_NAMES:
            if pred in ("sharp", "core"):
                s, t = minusord.generate.sharp_pair(0, 5, 2, 2)
                minusord.orders.order_predicate(pred)(s, s + t)
            else:
                minusord.orders.order_predicate(pred)(a, a + b)
        minusord.additivity.is_range_additive(a, b)

    def cleanup(self):
        pass


# --------------------------------------------------------------------------
# construct-large


#: Call types: the three constructions, then ordered_inverse_additivity for
#: each inverse kind on the pair kind whose order it needs.
CONSTRUCT_FAMILIES = ("fill_fishkind_pinv", "decoupled_lss", "sum_reflexive_inverse",
                      "moore_penrose", "group", "core")
ADDITIVITY_PAIRS = {"moore_penrose": "star", "group": "sharp", "core": "core"}


class ConstructLarge:
    name = "construct-large"
    nominal_pass_s = 15.0
    min_passes = 2

    def build(self, seed, smallest=160, step=4 / 3):
        """Thirty cases, each with its own n from ``smallest`` in steps of
        ``step`` (160 to 198 by default), so that the latencies spread
        evenly instead of clustering by shape.  The three constructions
        get a tall 3n/2-by-n shape at the largest scale."""
        rng = np.random.default_rng([seed, 2])
        cases = []
        for fi, family in enumerate(CONSTRUCT_FAMILIES):
            for si, scale in enumerate(SCALES):
                n = smallest + round(step * (fi + len(CONSTRUCT_FAMILIES) * si))
                r = n // 3
                data = {"family": family}
                if family in ADDITIVITY_PAIRS:
                    m = n
                    a, b = _draw(ADDITIVITY_PAIRS[family], rng, n, n, r)
                    label = f"ordered_inverse_additivity:{family}"
                else:
                    m = 3 * n // 2 if si == len(SCALES) - 1 else n
                    a, b = _draw("minus", rng, m, n, r)
                    label = family
                data["a"], data["b"] = scale * a, scale * b
                if family == "decoupled_lss":
                    data["c"] = scale * _cgauss(rng, m, 1)[:, 0]
                elif family == "sum_reflexive_inverse":
                    rank = 2 * r
                    data["range_complement"] = minusord.subspaces.Subspace.from_span(
                        _cgauss(rng, m, m - rank))
                    data["kernel_complement"] = minusord.subspaces.Subspace.from_span(
                        _cgauss(rng, n, rank))
                cases.append(Case(label, data, None, m == n))
        order = rng.permutation(len(cases))
        return [cases[i] for i in order]

    def refresh(self, cases, rng):
        t = _Transform(rng)
        out = []
        for c in cases:
            d = dict(c.data)
            m, n = d["a"].shape
            u, w = t.factors(m, n, c.square)
            d["a"], d["b"] = u @ d["a"] @ w, u @ d["b"] @ w
            if "c" in d:
                d["c"] = u @ d["c"]
            if "range_complement" in d:
                Subspace = minusord.subspaces.Subspace
                d["range_complement"] = Subspace(u @ d["range_complement"].basis)
                d["kernel_complement"] = Subspace(w.conj().T @ d["kernel_complement"].basis)
            out.append(Case(c.label, d, c.truth, c.square))
        return out

    def call(self, case):
        d = case.data
        family = d["family"]
        if family == "fill_fishkind_pinv":
            return minusord.sums.fill_fishkind_pinv(d["a"], d["b"])
        if family == "decoupled_lss":
            return minusord.lsq.decoupled_lss(d["a"], d["b"], d["c"])
        if family == "sum_reflexive_inverse":
            return minusord.sums.sum_reflexive_inverse(d["a"], d["b"], d["range_complement"],
                                                       d["kernel_complement"])
        return minusord.sums.ordered_inverse_additivity(d["a"], d["b"], family)

    def fingerprint(self, case, result):
        return None

    def check(self, case, result) -> bool:
        d = case.data
        total = d["a"] + d["b"]
        family = d["family"]
        if family == "fill_fishkind_pinv":
            return _pinv_ok(result, total)
        if family == "decoupled_lss":
            oracle = np.linalg.pinv(total) @ d["c"]
            bound = ORACLE_RTOL * (1.0 + _cond(total))
            return _rel(result.x_joint, oracle) <= bound and _rel(result.x_system, oracle) <= bound
        x = result
        reflexive = (_identity_ok(total @ x @ total, total, total, x, total)
                     and _identity_ok(x @ total @ x, x, x, total, x))
        if family == "sum_reflexive_inverse":
            return reflexive
        if family == "moore_penrose":
            return _pinv_ok(x, total)
        if family == "group":
            return reflexive and _identity_ok(total @ x, x @ total, total, x)
        tx = total @ x
        return (reflexive and _identity_ok(tx.conj().T, tx, total, x)
                and _identity_ok(x @ total @ total, total, x, total, total))

    def floor(self, case):
        d = case.data
        total = d["a"] + d["b"]
        if d["family"] == "decoupled_lss":
            np.linalg.lstsq(total, d["c"], rcond=None)
        else:
            np.linalg.pinv(total)

    def warm_up(self):
        for case in self.build(0, smallest=12, step=0):
            with contextlib.suppress(minusord.MinusordError):
                self.call(case)

    def cleanup(self):
        pass


# --------------------------------------------------------------------------
# cli-files


#: One shape per scale, about 150x120, so that latencies of one command
#: spread instead of clustering; ranks are n/3 + n/3.
CLI_SHAPES = ((130, 104), (140, 112), (150, 120), (160, 128), (170, 136))


def _load_mtx(path) -> np.ndarray:
    """Independent reader for the dense complex Matrix Market files."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    m, n = (int(t) for t in lines[1].split())
    vals = np.array([complex(*map(float, ln.split())) for ln in lines[2:2 + m * n]])
    return vals.reshape(n, m).T


class CliFiles:
    name = "cli-files"
    nominal_pass_s = 12.0
    min_passes = 4

    def __init__(self, workdir):
        self.workdir = workdir

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def build(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        cases = []
        for si, scale in enumerate(SCALES):
            m, n = CLI_SHAPES[si]
            a, b = _draw("minus", rng, m, n, n // 3)
            a, b = scale * a, scale * b
            other = a + scale * _cgauss(rng, m, n)
            c = scale * _cgauss(rng, m, 1)
            files = {}
            for key, mat in (("A", a), ("B", b), ("ApB", a + b), ("U", other), ("c", c)):
                files[key] = self._path(f"s{si}_{key}.mtx")
                minusord.mmio.write_matrix(files[key], mat)
            text, js = (["--json"], []) if si % 2 == 0 else ([], ["--json"])
            inputs = {"a": a, "b": b, "c": c[:, 0], "other": other}
            cases += [
                Case("check:ordered", {"argv": ["check", "minus", files["A"], files["ApB"]] + text,
                                       "expect": 0, "order": "minus", **inputs}),
                Case("check:unordered", {"argv": ["check", "star", files["A"], files["U"]] + js,
                                         "expect": 1, "order": "star", **inputs}),
                Case("pinv-sum:json", {"argv": ["pinv-sum", files["A"], files["B"], "--json"],
                                       "expect": 0, **inputs}),
                Case("pinv-sum:out", {"argv": ["pinv-sum", files["A"], files["B"],
                                               "--out", self._path(f"s{si}_pinv.mtx")],
                                      "expect": 0, "out": self._path(f"s{si}_pinv.mtx"),
                                      **inputs}),
                Case("lsq:json", {"argv": ["lsq", files["A"], files["B"], files["c"], "--json"],
                                  "expect": 0, **inputs}),
            ]
        gen_seed = int(rng.integers(2 ** 31))
        prefix = self._path("gen_")
        m, n = CLI_SHAPES[len(CLI_SHAPES) // 2]
        a, b = _draw("minus", np.random.default_rng(gen_seed), m, n, n // 3)
        cases.append(Case("gen", {"argv": ["gen", "minus", "--dims", f"{m}x{n}", "--ranks",
                                           f"{n // 3},{n // 3}", "--seed", str(gen_seed),
                                           "--out-prefix", prefix],
                                  "expect": 0, "prefix": prefix, "a": a, "b": b}))
        order = rng.permutation(len(cases))
        return [cases[i] for i in order]

    def refresh(self, cases, rng):
        """The same files every pass: the determinism check compares them."""
        return cases

    def call(self, case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = minusord.cli.main(case.data["argv"])
        return code, out.getvalue()

    def fingerprint(self, case, result) -> bytes:
        """Every byte the call produced: its exit code, stdout and the files
        it wrote, which are removed so that the next call starts clean."""
        code, stdout = result
        blob = f"{code}\n{stdout}".encode()
        for path in self._written(case):
            with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
                blob += fh.read()
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return blob

    def _written(self, case):
        d = case.data
        if "out" in d:
            return [d["out"]]
        if "prefix" in d:
            return [f"{d['prefix']}{k}.mtx" for k in ("A", "B", "ApB")]
        return []

    def check(self, case, result) -> bool:
        code, stdout = result
        d = case.data
        if code != d["expect"]:
            return False
        kind = case.label
        try:
            if kind.startswith("check"):
                if "--json" in d["argv"]:
                    return json.loads(stdout)["result"]["holds"] == (code == 0)
                verdict = "holds" if code == 0 else "does not hold"
                return stdout.splitlines()[0] == f"{d['order']}: {verdict}"
            total = d["a"] + d["b"]
            if kind == "pinv-sum:json":
                got = np.array(json.loads(stdout)["result"]["pinv_sum"])
                return _pinv_ok(got[..., 0] + 1j * got[..., 1], total)
            if kind == "pinv-sum:out":
                return _pinv_ok(_load_mtx(d["out"]), total)
            if kind == "lsq:json":
                got = np.array(json.loads(stdout)["result"]["x_joint"])
                oracle = np.linalg.pinv(total) @ d["c"]
                return _rel(got[:, 0] + 1j * got[:, 1], oracle) <= ORACLE_RTOL * (1.0 + _cond(total))
            # gen: files must hold the generator's pair exactly
            loaded = [_load_mtx(p) for p in self._written(case)]
            return all(np.array_equal(x, y) for x, y in zip(loaded, (d["a"], d["b"], total)))
        except (ValueError, KeyError, IndexError, TypeError, OSError):
            return False

    def floor(self, case):
        d = case.data
        kind = case.label
        if kind.startswith("check"):
            second = d["a"] + d["b"] if kind == "check:ordered" else d["other"]
            for x in (d["a"], second, second - d["a"]):
                np.linalg.matrix_rank(x)
        elif kind.startswith("pinv-sum"):
            np.linalg.pinv(d["a"] + d["b"])
        elif kind == "lsq:json":
            np.linalg.lstsq(d["a"] + d["b"], d["c"], rcond=None)
        else:
            np.linalg.svd(d["a"] + d["b"], compute_uv=False)

    def warm_up(self):
        prefix = self._path("warm_")
        for argv in (["gen", "minus", "--dims", "8x6", "--ranks", "2,2", "--out-prefix", prefix],
                     ["check", "minus", prefix + "A.mtx", prefix + "ApB.mtx", "--json"],
                     ["check", "star", prefix + "A.mtx", prefix + "ApB.mtx"],
                     ["pinv-sum", prefix + "A.mtx", prefix + "B.mtx", "--json"],
                     ["pinv-sum", prefix + "A.mtx", prefix + "B.mtx", "--out", prefix + "P.mtx"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                minusord.cli.main(argv)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name, workdir):
    if name == "decide-small":
        return DecideSmall()
    if name == "construct-large":
        return ConstructLarge()
    if name == "cli-files":
        return CliFiles(workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("decide-small", "construct-large", "cli-files")
