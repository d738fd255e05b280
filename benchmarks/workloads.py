"""Workload definitions: seeded inputs, one timed call per item, output checks.

Every workload drives cfx only through the public functions of its modules
(``cfx.engine``, ``cfx.families`` and ``cfx.cli``); the inputs are plain data
drawn from the seed.  Checks run outside the timed region and compare against
mpmath built-ins (``mp.exp``, ``mp.hyp1f1``) or, for convergent tables, a
separate Euler-Wallis recurrence written here from the paper's coefficients.

This module imports neither cfx nor mpmath at import time, so that the set-up
probe in ``run.py`` times the whole import of cfx, mpmath included.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

# A check failure is either a wrong answer (a value, an exit code or a report
# count that is not what cfx must produce) or a failed self-check (cfx's own
# ``oracle_delta`` above its tolerance while the printed value is right).
WRONG = "wrong"
SELF_CHECK = "self-check"


def _mp():
    from mpmath import mp

    return mp


def _quarter(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A multiple of 1/4 in [lo, hi]; dyadic values keep mpmath inputs exact."""
    return Fraction(rng.randint(int(lo * 4), int(hi * 4)), 4)


def _num_str(x: Fraction) -> str:
    return f"{float(x):g}"


def complex_str(re_part: Fraction, im_part: Fraction) -> str:
    """A literal in the cfx grammar, e.g. ``-2.5+1.75i``."""
    if im_part == 0:
        return _num_str(re_part)
    sign = "+" if im_part > 0 else "-"
    return f"{_num_str(re_part)}{sign}{_num_str(abs(im_part))}i"


def _to_mp(text: str):
    """mpf/mpc of a literal produced by :func:`complex_str`."""
    mp = _mp()
    m = re.fullmatch(r"(-?[\d.]+)(?:([+-])([\d.]+)i)?", text)
    re_v = mp.mpf(m.group(1))
    if m.group(2) is None:
        return re_v
    im_v = mp.mpf(m.group(3))
    return mp.mpc(re_v, im_v if m.group(2) == "+" else -im_v)


def target_value(family_id: str, params: dict):
    """The value each family converges to, from mpmath built-ins, at ambient precision."""
    mp = _mp()
    if family_id in ("e-euler", "e-regular", "e-over", "e-sporadic"):
        return mp.exp(1)
    if family_id == "e-squared":
        return mp.exp(2)
    if family_id == "exp-n":
        return mp.exp(params["n"])
    if family_id == "exp-inv-n":
        return mp.exp(mp.mpf(1) / params["n"])
    if family_id == "e-one-over-M":
        return mp.exp(mp.mpf(1) / params["M"])
    if family_id == "rat-exp":
        return mp.exp(mp.mpf(params["l"]) / params["n"])
    if family_id in ("inc-gamma", "confluent-1f1", "m-fraction-diagonal"):
        z = _to_mp(params["z"])
        return mp.hyp1f1(1, z + 1, z)
    if family_id == "m-fraction":
        return mp.hyp1f1(1, _to_mp(params["b"]) + 1, _to_mp(params["z"]))
    raise ValueError(f"no reference for {family_id}")


def agrees(value, reference, digits: int) -> bool:
    """The repo's two-precision tolerance: |v - ref| <= 10^-(digits-2) max(1, |ref|)."""
    mp = _mp()
    return abs(value - reference) <= mp.mpf(10) ** (-(digits - 2)) * max(1, abs(reference))


def _fraction_to_mp(v):
    mp = _mp()
    return mp.mpf(v.numerator) / v.denominator


# ---------------------------------------------------------------------------
# Reference convergents for the exact families used in convergent tables.


def _reference_rule(family_id: str, params: dict):
    """(head, a, b, finish) of the families' continued fractions, from the paper."""
    if family_id == "e-euler":
        return 3, (lambda m: -m), (lambda m: m + 3), (lambda w: w)
    if family_id == "exp-n":
        n = params["n"]
        prefix = sum(Fraction(n**k, math.factorial(k)) for k in range(n))
        scale = Fraction(n ** (n - 1), math.factorial(n - 1))
        return (1 + n, (lambda m: -n * (m + n - 1)), (lambda m: m + 2 * n + 1),
                (lambda w: prefix + scale * w))
    if family_id == "e-regular":
        # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, 1, ...]
        return (2, (lambda m: 1), (lambda m: (1, 2 * ((m - 1) // 3 + 1), 1)[(m - 1) % 3]),
                (lambda w: w))
    if family_id == "e-over":
        return 2, (lambda m: m + 1), (lambda m: m + 1), (lambda w: w)
    if family_id == "e-sporadic":
        return (1, (lambda m: 2 if m == 1 else 1), (lambda m: 1 if m == 1 else 4 * m - 2),
                (lambda w: w))
    raise ValueError(f"no reference recurrence for {family_id}")


def reference_convergents(family_id: str, params: dict, depth: int) -> list:
    """[(p_raw, q_raw, value or None)] for k = 0..depth by Euler-Wallis."""
    head, a, b, finish = _reference_rule(family_id, params)
    p_prev, p, q_prev, q = 1, head, 0, 1
    out = []
    for k in range(depth + 1):
        if k:
            p_prev, p = p, b(k) * p + a(k) * p_prev
            q_prev, q = q, b(k) * q + a(k) * q_prev
        out.append((p, q, None if q == 0 else finish(Fraction(p, q))))
    return out


def fraction_text(v) -> str:
    if v is None:
        return "singular"
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Item:
    """One timed call: a family evaluation or one in-process CLI request."""

    label: str
    family: str = ""
    params: tuple = ()  # sorted (name, value) pairs
    digits: int = 0
    argv: tuple = ()
    expect_exit: int = 0
    kind: str = ""  # cli-burst request kind: eval, convergents, diff-table, compare, reject
    depth: int = 0  # table depth of convergents, diff-table and compare requests

    @property
    def param_dict(self) -> dict:
        return dict(self.params)


class Workload:
    name = ""

    def inputs(self, seed: int, smoke: bool = False) -> list[Item]:
        raise NotImplementedError

    def run(self, cfx, item: Item):
        """The timed call; returns the raw output."""
        raise NotImplementedError

    def key(self, item: Item, output) -> str:
        """Canonical text of an output: the digest input and the repeat check."""
        raise NotImplementedError

    def check(self, item: Item, output) -> list[tuple[str, str]]:
        """[(WRONG or SELF_CHECK, message)]; empty when the output passes.

        May raise KeyError, IndexError, TypeError or ValueError on output it
        cannot read; the runner counts that as a wrong answer.
        """
        raise NotImplementedError


class _FamilyWorkload(Workload):
    """Items are (family, params, digits) evaluated with engine.estimate_limit."""

    def run(self, cfx, item):
        spec = cfx.families.make_family(item.family, **item.param_dict)
        return cfx.engine.estimate_limit(spec, item.digits)

    def key(self, item, output):
        value, depth = output
        if isinstance(value, Fraction):
            # Hexadecimal: str() of an int is capped at 4300 digits.
            text = f"{value.numerator:x}/{value.denominator:x}"
        else:
            mp = _mp()
            with mp.workdps(item.digits + 10):
                text = f"{mp.nstr(value.real, item.digits)} {mp.nstr(value.imag, item.digits)}"
        return f"{item.label} {text} depth={depth}"

    def check(self, item, output):
        value, depth = output
        mp = _mp()
        with mp.workdps(item.digits + 20):
            ref = target_value(item.family, item.param_dict)
            got = _fraction_to_mp(value) if isinstance(value, Fraction) else value
            if not agrees(got, ref, item.digits):
                return [(WRONG, f"{item.label}: off by {mp.nstr(abs(got - ref), 5)}")]
        if not (isinstance(depth, int) and depth > 0):
            return [(WRONG, f"{item.label}: achieved_depth {depth!r}")]
        return []


class ExactDeep(_FamilyWorkload):
    """Few deep exact evaluations.  Nearly all time is engine plus kernel
    Fraction gcd, the target of a gcd-free engine; oracle, identities and cli
    do nothing here."""

    name = "exact-deep"

    def inputs(self, seed, smoke=False):
        rng = random.Random(seed)
        euler, deep, mfrac = ((60, 90, 120), 80, 60) if smoke else ((1000, 3000, 5000), 3000, 2000)
        items = [Item(f"e-euler@{d}", "e-euler", (), d) for d in euler]
        for n in sorted(rng.sample(range(2, 6), 3)):
            items.append(Item(f"exp-n(n={n})@{deep}", "exp-n", (("n", n),), deep))
        # The median item latency lies between e-regular and e-euler at 3k
        # digits.  The seed draws rat-exp (l/n < 1/2) from items that cost a
        # little less than those two and m-fraction (z >= 1.5) from items that
        # cost more, so the median moves little from seed to seed.
        pairs = [(l, n) for n in range(2, 10) for l in range(1, n) if 2 * l < n]
        for l, n in sorted(rng.sample(pairs, 3)):
            items.append(Item(f"rat-exp(l={l},n={n})@{deep}", "rat-exp",
                              (("l", l), ("n", n)), deep))
        for fid in ("e-regular", "e-over", "e-sporadic", "e-squared"):
            items.append(Item(f"{fid}@{deep}", fid, (), deep))
        b = complex_str(_quarter(rng, 0.5, 3), Fraction(0))
        z = complex_str(_quarter(rng, 1.5, 3), Fraction(0))
        items.append(Item(f"m-fraction(b={b},z={z})@{mfrac}", "m-fraction",
                          (("b", b), ("z", z)), mfrac))
        return items


class ComplexZ(_FamilyWorkload):
    """Complex z in the cut plane, Re z < 0 included.  The mpmath
    two-precision path rebuilds z for every coefficient and makes no gcd
    calls, so it is the control for exact-deep and the reverse."""

    name = "complex-z"

    def inputs(self, seed, smoke=False):
        rng = random.Random(seed)

        def z_param(j):
            # Alternate Re z < 0 and Re z > 0; Im z != 0 keeps z off the cut.
            re_part = _quarter(rng, -3, -0.25) if j % 2 == 0 else _quarter(rng, 0.25, 3.5)
            return complex_str(re_part, _quarter(rng, 0.5, 3.5) * rng.choice((1, -1)))

        # Every item draws its own z (and b), so that a pass averages over many
        # draws.  Twice as many items at the lower precision put the median
        # item latency inside the 300-digit group, not between the groups.
        items = []
        for d, per_family in (((30, 4), (60, 2)) if smoke else ((300, 4), (1000, 2))):
            for fid in ("inc-gamma", "m-fraction-diagonal", "m-fraction"):
                for j in range(per_family):
                    params = {"z": z_param(j)}
                    if fid == "m-fraction":
                        params["b"] = complex_str(_quarter(rng, 0.25, 3), _quarter(rng, -2, 2))
                    label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
                    items.append(Item(f"{fid}({label})@{d}", fid, tuple(sorted(params.items())), d))
        return items


def _cli_call(cfx, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cfx.cli.main(list(argv))
    return code, out.getvalue()


def _canonical_stdout(argv, stdout: str) -> str:
    """stdout with the wall-clock ``runtime_seconds`` removed (JSON format only)."""
    if "json" not in argv or not stdout:
        return stdout
    record = json.loads(stdout)
    record["diagnostics"].pop("runtime_seconds", None)
    return json.dumps(record, sort_keys=True)


def verify_report_count(max_n: int) -> int:
    """Reports of ``verify --suite all`` on a grid, from the grids ROADMAP fixes.

    Per n: recurrence2, qform, diff, rate, beta integral; per (l, n): recurrence4,
    lemma42, thm41, rational integral; seven cut-plane z for lemma23 and thm31;
    one nonequivalence report.
    """
    pairs = max_n * (max_n - 1) // 2
    return 5 * max_n + 4 * pairs + 2 * 7 + 1


class VerifySuite(Workload):
    """``cfx verify --suite all`` in-process on the default and the heavy grid.
    Time goes to identities and oracle (quadrature, series); engine is minor.
    The default grid runs four times per pass so that the median item latency
    is the default grid's, from a dozen samples per run, and the 95th
    percentile the heavy grid's."""

    name = "verify-suite"

    def inputs(self, seed, smoke=False):
        # The grids are fixed by ROADMAP; the seed is accepted and not used.
        base = ("verify", "--suite", "all", "--format", "json")
        if smoke:
            grids = [("smoke", ("--max-n", "3", "--depth", "20", "--digits", "30"), 3)]
        else:
            default = ("default", (), 6)
            grids = [default, default,
                     ("heavy", ("--max-n", "12", "--depth", "200", "--digits", "200"), 12),
                     default, default]
        return [Item(f"verify-{label}", argv=base + extra, expect_exit=0,
                     params=(("reports", verify_report_count(max_n)),))
                for label, extra, max_n in grids]

    def run(self, cfx, item):
        return _cli_call(cfx, item.argv)

    def key(self, item, output):
        code, stdout = output
        return f"{item.label} exit={code} {_canonical_stdout(item.argv, stdout)}"

    def check(self, item, output):
        code, stdout = output
        if code != item.expect_exit:
            return [(WRONG, f"{item.label}: exit {code}")]
        record = json.loads(stdout)
        rows = record["rows"]
        expected = item.param_dict["reports"]
        failed = [r for r in rows if r["passed"] is not True]
        problems = []
        if len(rows) != expected or record["diagnostics"]["total"] != expected:
            problems.append((WRONG, f"{item.label}: {len(rows)} reports, expected {expected}"))
        if failed or record["diagnostics"]["failed"] != 0:
            problems.append((WRONG, f"{item.label}: {len(failed)} failed reports, first "
                                    f"{failed[0]['claim_id'] if failed else '?'}"))
        return problems


# Request mix of cli-burst per 400 requests.  The negative-real-z m-fraction
# evaluations include |z| large enough that cfx's own series oracle loses
# digits to cancellation (ROADMAP item 3); they stay in the mix on purpose.
CLI_MIX = (("eval", 160), ("eval-negative-z", 16), ("eval-large-negative-z", 4),
           ("convergents", 90), ("diff-table", 50), ("compare", 40), ("reject", 40))

# For b in {0.5, 1, 2} and 20 to 80 digits, cfx's oracle_delta of m-fraction
# at z = -|z| is within tolerance for every |z| <= 45 and above it for every
# |z| >= 56; in between it depends on b and the digits.  Drawing from the two
# outer bands makes the number of failing requests (4 per pass, all ROADMAP
# item 3) the same for every seed.
NEGATIVE_Z_PASSING = range(1, 46)
NEGATIVE_Z_FAILING = range(56, 61)

_EVAL_FAMILIES = ("e-euler", "e-regular", "e-over", "e-sporadic", "e-squared", "exp-n",
                  "exp-inv-n", "rat-exp", "e-one-over-M", "inc-gamma", "confluent-1f1",
                  "m-fraction", "m-fraction-diagonal")
_CONVERGENT_FAMILIES = ("e-euler", "exp-n", "e-regular", "e-over", "e-sporadic")
_E_FAMILIES = ("e-euler", "e-regular", "e-over", "e-sporadic")
# Inputs cfx must refuse, with the exit code it must refuse them with; K is a
# drawn digit 1-9 and K1 is K + 1.
_REJECTS = (
    (["eval", "--expansion", "inc-gamma", "--z", "-K"], 3),
    (["eval", "--expansion", "confluent-1f1", "--z", "-K.5"], 3),
    (["convergents", "--expansion", "m-fraction-diagonal", "--z", "-K"], 3),
    (["eval", "--expansion", "exp-n", "--n", "0"], 2),
    (["eval", "--expansion", "rat-exp", "--l", "K1", "--n", "K"], 2),
    (["eval", "--expansion", "m-fraction", "--b", "-K", "--z", "1"], 2),
    (["eval", "--expansion", "inc-gamma", "--z", "K+i"], 2),
    (["eval", "--expansion", "e-one-over-M", "--M", "1"], 2),
)


def _stratified(rng, values, count):
    """``count`` draws from ``values``, one from each of ``count`` equal strata,
    in random order.  Stratified rather than independent draws keep the cost
    of the request mix nearly the same from seed to seed."""
    values = list(values)
    out = [values[int((i + rng.random()) * len(values) / count)] for i in range(count)]
    rng.shuffle(out)
    return out


class CliBurst(Workload):
    """About 400 small in-process ``cli.main`` requests in all three formats,
    rejected inputs included.  It covers cli, family construction and the
    small oracle call behind each ``oracle_delta``, and uses the engine as
    many short evaluations, so a higher fixed cost per call shows here."""

    name = "cli-burst"

    def inputs(self, seed, smoke=False):
        rng = random.Random(seed)
        items = []
        for kind, count in CLI_MIX:
            draw = getattr(self, "_draw_" + kind.replace("-", "_"))
            items += draw(rng, max(1, count // 20) if smoke else count)
        rng.shuffle(items)
        return items

    @staticmethod
    def _item(kind, argv, family="", params=(), expect_exit=0, depth=0):
        digits = int(argv[argv.index("--digits") + 1]) if "--digits" in argv else 0
        return Item(" ".join(argv), family, tuple(sorted(params)), digits, tuple(argv),
                    expect_exit, kind, depth)

    @staticmethod
    def _options(rng, count, digits=True):
        """``--digits`` (20 to 80) and ``--format`` options for ``count`` requests."""
        formats = _stratified(rng, ("text", "csv", "json"), count)
        if not digits:
            return [["--format", f] for f in formats]
        return [["--digits", str(d), "--format", f]
                for d, f in zip(_stratified(rng, range(20, 81), count), formats)]

    @staticmethod
    def _family_params(rng, fid, shape="complex"):
        """Parameters of an eval or convergents request; ``shape`` is the kind of
        z: "left" (Re z <= 0), "complex" (Re z > 0) or "real" (z > 0, which
        cfx evaluates in the exact ring)."""
        if fid == "exp-n":
            return {"n": rng.randint(1, 6)}
        if fid == "exp-inv-n":
            return {"n": rng.randint(3, 9)}
        if fid == "e-one-over-M":
            return {"M": rng.randint(2, 9)}
        if fid == "rat-exp":
            n = rng.randint(2, 9)
            return {"l": rng.randint(1, n - 1), "n": n}
        if fid in ("inc-gamma", "confluent-1f1", "m-fraction-diagonal", "m-fraction"):
            re_part = _quarter(rng, -3, 0) if shape == "left" else _quarter(rng, 0.25, 4)
            im = Fraction(0) if shape == "real" else _quarter(rng, 0.25, 3) * rng.choice((1, -1))
            params = {"z": complex_str(re_part, im)}
            if fid == "m-fraction":
                b_im = Fraction(0) if shape == "real" else _quarter(rng, -2, 2)
                params["b"] = complex_str(_quarter(rng, 0.25, 3), b_im)
            return params
        return {}

    @staticmethod
    def _param_argv(params):
        argv = []
        for key, value in sorted(params.items()):
            argv += [f"--{key}", str(value)]
        return argv

    def _draw_eval(self, rng, count):
        # The slowest requests, which set the tail, are complex-z families at
        # high precision, while an exact-ring real z costs far less.  So the kind
        # of z is stratified within each family, and digits within each
        # (family, kind of z) cell.
        fids = _stratified(rng, _EVAL_FAMILIES, count)
        shapes = {fid: _stratified(rng, ("left", "complex", "real"), fids.count(fid))
                  for fid in _EVAL_FAMILIES}
        cells = [(fid, shapes[fid].pop()) for fid in fids]
        digits = {cell: _stratified(rng, range(20, 81), cells.count(cell))
                  for cell in sorted(set(cells))}
        items = []
        for (fid, shape), fmt in zip(cells, _stratified(rng, ("text", "csv", "json"), count)):
            params = self._family_params(rng, fid, shape)
            argv = (["eval", "--expansion", fid] + self._param_argv(params)
                    + ["--digits", str(digits[fid, shape].pop()), "--format", fmt])
            items.append(self._item("eval", argv, fid, params.items()))
        return items

    def _draw_eval_negative_z(self, rng, count, magnitudes=NEGATIVE_Z_PASSING):
        items = []
        for z, b, opts in zip(_stratified(rng, magnitudes, count),
                              _stratified(rng, ("0.5", "1", "2"), count),
                              self._options(rng, count)):
            params = {"b": b, "z": str(-z)}
            argv = ["eval", "--expansion", "m-fraction"] + self._param_argv(params) + opts
            items.append(self._item("eval", argv, "m-fraction", params.items()))
        return items

    def _draw_eval_large_negative_z(self, rng, count):
        return self._draw_eval_negative_z(rng, count, NEGATIVE_Z_FAILING)

    def _draw_convergents(self, rng, count):
        items = []
        for fid, depth, opts in zip(_stratified(rng, _CONVERGENT_FAMILIES, count),
                                    _stratified(rng, range(5, 51), count),
                                    self._options(rng, count)):
            params = self._family_params(rng, fid)
            argv = (["convergents", "--expansion", fid] + self._param_argv(params)
                    + ["--depth", str(depth)] + opts)
            items.append(self._item("convergents", argv, fid, params.items(), depth=depth))
        return items

    def _draw_diff_table(self, rng, count):
        items = []
        for n, depth, opts in zip(_stratified(rng, range(1, 7), count),
                                  _stratified(rng, range(5, 41), count),
                                  self._options(rng, count, digits=False)):
            argv = ["diff-table", "--n", str(n), "--depth", str(depth)] + opts
            items.append(self._item("diff-table", argv, "exp-n", (("n", n),), depth=depth))
        return items

    def _draw_compare(self, rng, count):
        items = []
        for size, depth, opts in zip(_stratified(rng, (2, 3, 4), count),
                                     _stratified(rng, range(5, 21), count),
                                     self._options(rng, count)):
            ids = ",".join(rng.sample(_E_FAMILIES, size))
            argv = ["compare", "--value", "e", "--expansions", ids, "--depth", str(depth)] + opts
            items.append(self._item("compare", argv, ids, depth=depth))
        return items

    def _draw_reject(self, rng, count):
        items = []
        for (argv, code), opts in zip(_stratified(rng, _REJECTS, count), self._options(rng, count)):
            k = rng.randint(1, 9)
            argv = [a.replace("K1", str(k + 1)).replace("K", str(k)) for a in argv]
            items.append(self._item("reject", argv + opts, expect_exit=code))
        return items

    def run(self, cfx, item):
        return _cli_call(cfx, item.argv)

    def key(self, item, output):
        code, stdout = output
        return f"{item.label} exit={code} {_canonical_stdout(item.argv, stdout)}"

    def check(self, item, output):
        code, stdout = output
        if code != item.expect_exit:
            return [(WRONG, f"{item.label}: exit {code}, expected {item.expect_exit}")]
        if item.kind == "reject":
            return [(WRONG, f"{item.label}: rejected input printed output")] if stdout else []
        rows, diagnostics = parse_record(item.argv, stdout)
        return getattr(self, "_check_" + item.kind.replace("-", "_"))(item, rows, diagnostics)

    def _check_eval(self, item, rows, diagnostics):
        mp = _mp()
        row = rows[0]
        problems = []
        with mp.workdps(item.digits + 20):
            ref = target_value(item.family, item.param_dict)
            if not agrees(parse_decimal(row["value"]), ref, item.digits):
                problems.append((WRONG, f"{item.label}: value {row['value']}"))
            delta = row.get("oracle_delta")
            tol = mp.mpf(10) ** (-(item.digits - 2)) * max(1, abs(ref))
            if delta in (None, "") or mp.mpf(delta) > tol:
                problems.append((SELF_CHECK, f"{item.label}: oracle_delta {delta}"))
        return problems

    def _check_convergents(self, item, rows, diagnostics):
        ref = reference_convergents(item.family, item.param_dict, item.depth)
        if len(rows) != item.depth + 1:
            return [(WRONG, f"{item.label}: {len(rows)} rows")]
        mp = _mp()
        for k, (row, (p, q, v)) in enumerate(zip(rows, ref)):
            if (int(row["k"]), str(row["p_raw"]), str(row["q_raw"]), str(row["value"])) != \
                    (k, str(p), str(q), fraction_text(v)):
                return [(WRONG, f"{item.label}: row {k} differs from the reference recurrence")]
            if v is not None:
                with mp.workdps(item.digits + 20):
                    if not agrees(parse_decimal(row["decimal"]), _fraction_to_mp(v), item.digits):
                        return [(WRONG, f"{item.label}: decimal of row {k}")]
        return []

    def _check_diff_table(self, item, rows, diagnostics):
        ref = reference_convergents("exp-n", item.param_dict, item.depth)
        if len(rows) != item.depth:
            return [(WRONG, f"{item.label}: {len(rows)} rows")]
        for k, row in enumerate(rows, start=1):
            diff = fraction_text(ref[k][2] - ref[k - 1][2])
            if (int(row["k"]), str(row["difference"]), str(row["formula"]), str(row["match"])) != \
                    (k, diff, diff, "True"):
                return [(WRONG, f"{item.label}: row {k}")]
        return []

    def _check_compare(self, item, rows, diagnostics):
        ids = item.family.split(",")
        refs = {fid: reference_convergents(fid, {}, item.depth) for fid in ids}
        if len(rows) != item.depth + 1:
            return [(WRONG, f"{item.label}: {len(rows)} rows")]
        for k, row in enumerate(rows):
            if any(str(row[fid]) != fraction_text(refs[fid][k][2]) for fid in ids):
                return [(WRONG, f"{item.label}: row {k}")]
        if diagnostics is not None and str(diagnostics.get("limits_agree")) != "True":
            return [(WRONG, f"{item.label}: limits_agree {diagnostics.get('limits_agree')}")]
        return []


def parse_decimal(text: str):
    """mpf or mpc of a cfx decimal string such as ``(1.25 + 0.5j)``."""
    mp = _mp()
    m = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", text.strip())
    if m is None:
        return mp.mpf(text)
    im = mp.mpf(m.group(3))
    return mp.mpc(mp.mpf(m.group(1)), im if m.group(2) == "+" else -im)


def parse_record(argv, stdout: str):
    """(rows, diagnostics) of a text, csv or json record; csv has no diagnostics."""
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        record = json.loads(stdout)
        return record["rows"], record["diagnostics"]
    lines = stdout.splitlines()
    if fmt == "csv":
        import csv

        reader = csv.reader(lines)
        header = next(reader)
        return [dict(zip(header, row)) for row in reader], None
    # text: "# header", a table whose columns are separated by two or more
    # spaces, then "key: value" diagnostics.
    table = [line for line in lines[1:] if ": " not in line]
    diagnostics = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    header = re.split(r"\s{2,}", table[0].strip())
    rows = [dict(zip(header, re.split(r"\s{2,}", line.strip()))) for line in table[1:]]
    return rows, diagnostics


WORKLOADS = {w.name: w for w in (ExactDeep(), ComplexZ(), VerifySuite(), CliBurst())}
