"""Command-line driver and reproducible experiment suites.

Subcommands: field, value-set, preimage, charsum, deephole, bound, region,
suite.  Every command emits JSON, exactly the bytes of
json.dumps(doc, sort_keys=True, indent=2) plus a newline; `suite` can also
emit CSV with one row per grid instance.  There is no randomness anywhere
in the core, so a given invocation always produces byte-identical output.

Each one-shot handler takes the parsed arguments and the field and returns
its report with a pass flag; it writes nothing.  `main` alone parses
`--field`, writes the report to stdout or `--out` and sets the exit
status: 0 if the report's checks pass, 1 if not, 2 on an error, which
writes nothing.  `suite` writes its own report in its `--format`.

Each budget is checked before the work it bounds: `deephole` and its suite
check every rule of an instance on |D| in one runner, before enumerating D.
In `suite` budgets fail soft: an instance over its enumeration or DP cap is
recorded as "skipped: budget ...", one over its subset-scan cap is decided
by the subset-sum test alone, and the rest run; exit 0 iff no instance failed.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from functools import partial
from itertools import product
from json.encoder import encode_basestring_ascii as _json_str
from math import comb, factorial, isfinite, perm
from operator import itemgetter
from typing import NamedTuple

# `charsum` and `sieve` are imported by the handlers and suite runners that
# call them, so `deephole`, `field`, `value-set` and `preimage` never load them
from . import __version__
from .dickson import (
    DicksonSpec,
    preimage_counts,
    value_counts,
    value_set,
    value_set_size,
    value_set_size_formula,
)
from .gf import FiniteField, parse_field_spec
from .polyring import parse_poly_literal
from .rscode import (
    DEFAULT_DP_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    RSCodeSpec,
    ReceivedWord,
    _dp_guard,
    deg_k1_deep_hole_test,
    error_distance_bf,
    count_Nu,
    monomial_word,
)

SUITE_NAMES = ("valueset", "preimage", "charsum", "sieve", "deephole", "region")
_NO_WORDS = "no degree-(k+1) words (k+1 > |D|-1)"


# ---------------------------------------------------------------------------
# experiment configuration


def _parse_range(text: str, what: str) -> tuple[int, ...]:
    """Accepts "3", "2..12" (inclusive), or "1,3,5"."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        vals = tuple(range(int(lo), int(hi) + 1))
    elif "," in text:
        vals = tuple(int(v) for v in text.split(","))
    elif text:
        vals = (int(text),)
    else:
        vals = ()
    if not vals:
        raise ValueError(f"empty {what} range: {text!r}")
    return vals


# Each suite setting: its config key, which is also its `suite` flag name,
# mapped to (parser of its text, flag help); config files and flags both use it.
_SETTINGS = {
    "field": (str, "field spec: p, p^m, or p^m/c0,...,cm"),
    "suites": (lambda text: tuple(s.strip() for s in text.split(",") if s.strip()),
               f"comma list from {', '.join(SUITE_NAMES)} or 'all'"),
    "n": (lambda text: _parse_range(text, "n"), "range: 3, 2..12, or 2,3,5"),
    "a": (lambda text: None if text == "all" else _parse_range(text, "a"),
          "range as for --n, or 'all'"),
    "k": (lambda text: _parse_range(text, "k"), "range as for --n"),
    "c1": (float, "region gate constant c1 (default {c1})"),
    "format": (str, "report format: json or csv (default {format})"),
    "budget-subsets": (int, f"cap on brute-force subset scans (default {DEFAULT_SUBSET_BUDGET})"),
    "budget-dp": (int, f"cap on subset-sum DP size |D|*r*q (default {DEFAULT_DP_BUDGET})"),
    "out": (str, "write output to this path instead of stdout"),
}


class ExperimentConfig(NamedTuple):
    """Everything `suite` needs, parsed from key=value text by `from_text`
    (keys match the CLI flag names)."""

    field: str
    suites: tuple[str, ...] = ("all",)
    n: tuple[int, ...] = (2,)
    a: tuple[int, ...] | None = None  # None means all of F_q^*
    k: tuple[int, ...] = (1,)
    c1: float = 0.015
    out: str | None = None
    format: str = "json"
    budget_subsets: int = DEFAULT_SUBSET_BUDGET
    budget_dp: int = DEFAULT_DP_BUDGET

    def selected_suites(self) -> tuple[str, ...]:
        if "all" in self.suites:
            return SUITE_NAMES
        return self.suites

    def validate(self) -> FiniteField:
        F = parse_field_spec(self.field)
        for s in self.suites:
            if s != "all" and s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}; choose from {SUITE_NAMES}")
        if not self.suites or not self.n or not self.k:
            raise ValueError("suites, n and k ranges must be non-empty")
        if self.a is not None and not self.a:
            raise ValueError("a range must be non-empty (or 'all')")
        if min(self.n) < 2:
            raise ValueError("the counting formulas require n >= 2")
        if self.a is not None and (min(self.a) < 1 or max(self.a) >= F.q):
            raise ValueError("a values must be nonzero field elements")
        if min(self.k) < 1:
            raise ValueError("k values must be >= 1")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.budget_subsets <= 0 or self.budget_dp <= 0:
            raise ValueError("budgets must be positive")
        if not isfinite(self.c1):
            raise ValueError(f"c1 must be finite, got {self.c1}")
        return F

    def a_values(self, F: FiniteField) -> tuple[int, ...]:
        return self.a if self.a is not None else tuple(F.units())

    @classmethod
    def from_text(cls, text: str, overrides: dict[str, str] | None = None) -> "ExperimentConfig":
        """Parse key=value lines ('#' starts a comment line); `overrides`, raw
        strings keyed like the file, replace the file's values."""
        kv = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {raw!r}")
            key, val = line.split("=", 1)
            kv[key.strip()] = val.strip()
        kv.update(overrides or {})
        unknown = sorted(set(kv) - set(_SETTINGS))
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown}; keys are {sorted(_SETTINGS)}")
        if "field" not in kv:
            raise ValueError("config is missing the required key 'field' (or --field)")
        return cls(**{key.replace("-", "_"): _SETTINGS[key][0](val) for key, val in kv.items()})

    def echo(self) -> dict:
        doc = self._asdict()
        del doc["out"]
        doc["a"] = "all" if self.a is None else self.a
        return doc


# ---------------------------------------------------------------------------
# suite engine


class InstanceResult(NamedTuple):
    params: dict
    status: str  # pass | fail | skipped
    detail: str = ""


def _checked(params: dict, ok: bool, detail: str) -> InstanceResult:
    """The record of an instance that ran its check."""
    return InstanceResult(params, "pass" if ok else "fail", detail)


class SuiteResult(NamedTuple):
    name: str
    instances: list[InstanceResult]
    wall_clock: float = 0.0  # console diagnostics only; never serialized

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for inst in self.instances:
            out[inst.status] += 1
        return out


class RunReport(NamedTuple):
    config: dict
    version: str
    suites: list[SuiteResult]

    @property
    def overall_pass(self) -> bool:
        return all(i.status != "fail" for s in self.suites for i in s.instances)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "overall_pass": self.overall_pass,
            "suites": [
                {
                    "name": s.name,
                    "counts": s.counts(),
                    "failures": [
                        {"params": i.params, "detail": i.detail}
                        for i in s.instances
                        if i.status == "fail"
                    ],
                }
                for s in self.suites
            ],
        }


def _cells(cfg: ExperimentConfig, F: FiniteField, out: list, enumerate_):
    """Yield (params, spec, enumerate_(spec)) for each (n, a) cell of the grid;
    a cell whose enumeration exceeds its budget is recorded in `out` as skipped."""
    for n, a in product(cfg.n, cfg.a_values(F)):
        params = {"q": F.q, "n": n, "a": a}
        spec = DicksonSpec(F, n, a)
        try:
            values = enumerate_(spec)
        except ValueError as e:
            out.append(InstanceResult(params, "skipped", f"skipped: budget ({e})"))
            continue
        yield params, spec, values


def _run_valueset(cfg: ExperimentConfig, F: FiniteField) -> list[InstanceResult]:
    out = []
    for params, spec, counts in _cells(cfg, F, out, value_counts):
        rep = value_set_size_formula(spec)
        detail = f"formula={rep.size} enum={len(counts)} delta={rep.delta}"
        out.append(_checked(params, rep.size == len(counts), detail))
    return out


def _run_preimage(cfg: ExperimentConfig, F: FiniteField) -> list[InstanceResult]:
    out = []
    for params, spec, counts in _cells(cfg, F, out, value_counts):
        bad = [(x0, count, counts[value])
               for x0, value, count, _ in preimage_counts(spec, F.elements())
               if count != counts[value]]
        detail = f"{F.q} points"
        if bad:
            x0, got, want = bad[0]
            params = dict(params, x0=x0)
            detail = f"formula={got} brute={want} (+{len(bad) - 1} more)"
        out.append(_checked(params, not bad, detail))
    return out


def _charsum_worst(cell, tab) -> tuple[float, float, float]:
    """(least slack, identity deviation, weil3 pair gap) of one character on
    one cell; the split sum is weil2 for odd q, where the pair is that one sum."""
    row = cell.row(tab)
    r1, r2 = cell.pair(row)
    slack = min(cell.lemma(tab).slack, cell.weil1(row).slack, r1.slack, r2.slack)
    return slack, cell.identity(tab), abs(r1.sum - r2.sum)


def _run_charsum(cfg: ExperimentConfig, F: FiniteField) -> list[InstanceResult]:
    from .charsum import TOL_IDENTITY, TOL_SLACK, CellSums, characters_by_powers

    out, cells = [], []
    for params, spec, _ in _cells(cfg, F, out, lambda spec: F.elements()):  # the budget only
        cells.append((len(out), params, spec))
        out.append(None)  # filled in once every character has run on every cell
    # one walk over the characters serves every cell.  Grouped by a, the cells
    # share a's rows, and on the first character each one reads its inputs
    # while the one-entry memos hold its spec and a
    cells = [(slot, params, CellSums(spec))
             for slot, params, spec in sorted(cells, key=lambda cell: cell[1]["a"])]
    worst = [(float("inf"), 0.0, 0.0)] * len(cells)
    for _, tab in characters_by_powers(F) if cells else ():
        for i, (_, _, cell) in enumerate(cells):
            slack, dev, gap = _charsum_worst(cell, tab)
            w_slack, w_dev, w_gap = worst[i]
            worst[i] = (min(w_slack, slack), max(w_dev, dev), max(w_gap, gap))
    for (slot, params, cell), (slack, dev, gap) in zip(cells, worst):
        # the identity holds for every character iff the defect is empty; psi_0 = 1 adds its sum
        L, defect = cell.defect
        dev = max(dev, abs(sum(w for _, w in defect)) / L)
        ok = slack >= -TOL_SLACK and not defect and gap <= TOL_IDENTITY
        detail = f"worst_slack={slack:.3e} identity_dev={dev:.3e}"
        if gap:
            detail += f" pair_gap={gap:.3e}"
        out[slot] = _checked(params, ok, detail)
    return out


def _run_sieve(cfg: ExperimentConfig, F: FiniteField) -> list[InstanceResult]:
    from .charsum import TOL_IDENTITY, AdditiveCharacter
    from .sieve import (DIRECT_MAX_D, C_k_eval, C_k_periodic_bound, cycle_types, perm_count,
                        sieve_identity_F)

    def direct_set(spec: DicksonSpec):
        if value_set_size(spec) > DIRECT_MAX_D:  # decided before D is enumerated
            raise ValueError(f"|D| > {DIRECT_MAX_D}")
        return value_set(spec)

    out = []
    # global combinatorial self-checks, once per run
    ok = all(
        sum(perm_count(t) for t in cycle_types(k)) == factorial(k) for k in range(1, 11)
    )
    # C_k at a constant argument t is the rising factorial t(t+1)...(t+k-1)
    ok = ok and all(C_k_eval([3] * k) == perm(k + 2, k) for k in range(1, 11))
    for k in range(1, 8):
        closed, bound = C_k_periodic_bound(2.5, 9.0, 2, k)
        ok = ok and closed <= bound * (1 + 1e-12)
    out.append(_checked({"q": F.q, "check": "global"}, ok,
                        "cycle counts, rising factorial, periodic bound"))
    for params, spec, D in _cells(cfg, F, out, direct_set):
        psi = AdditiveCharacter(F, 1)
        worst = 0.0
        for k in range(1, min(4, D.size + 1)):
            direct, via = sieve_identity_F(D, psi, k)
            worst = max(worst, abs(direct - via))
        out.append(_checked(params, worst <= TOL_IDENTITY, f"identity_dev={worst:.3e}"))
    return out


def _refused(message: str, skip: str) -> ValueError:
    """The error of a rule an instance breaks; `skip` is the suite's record of it."""
    err = ValueError(message)
    err.skip = skip
    return err


def _deep_holes(spec: DicksonSpec, k: int, budget_dp: int, budget_subsets: int | None,
                make_word=monomial_word, sources=None, fall_back: bool = False):
    """Check the rules of the deep-hole instance (spec, k) on |D| (the size
    formula where it applies, n >= 2 and a != 0, else D enumerated first) in
    this order: k + 2 <= |D|, the DP budget, the subset budget; then read D.
    Return the code, whether its words make_word(code, s), s in `sources`
    (None: every b1 in F_q), are crosschecked, and their lazy reports.  A
    crosscheck costs C(|D|, k) pencil parameters a word; over `budget_subsets`
    (None: none) they raise, or are dropped if `fall_back`."""
    size = value_set_size(spec) if spec.n >= 2 and spec.a else value_set(spec).size
    if k + 2 > size:
        raise _refused(f"{_NO_WORDS}: k = {k}, |D| = {size}", _NO_WORDS)
    try:
        _dp_guard(size, k + 1, spec.field.q, budget_dp)
    except ValueError as e:
        raise _refused(str(e), "budget (DP)") from None
    sources = spec.field.elements() if sources is None else sources
    cost = comb(size, k) * len(sources)
    crosscheck = budget_subsets is not None and cost <= budget_subsets
    if budget_subsets is not None and not crosscheck and not fall_back:
        raise ValueError(f"crosschecking {len(sources)} word(s) takes {cost} pencil parameters, "
                         f"over the subset budget {budget_subsets}")
    code = RSCodeSpec.from_evaluation_set(value_set(spec), k)
    radius = size - k

    def reports():
        for word in (make_word(code, s) for s in sources):
            res = deg_k1_deep_hole_test(word, budget_dp)
            entry = {"k": k, "b1": res.b1, "is_deep_hole": res.is_deep_hole,
                     "subset": list(res.subset) if res.subset else None,
                     "codeword": res.codeword.literal() if res.codeword else None,
                     "n_u": count_Nu(code, res.b1, budget_dp)}
            # a degree-(k+1) word sits at distance |D|-k (deep hole) or |D|-k-1
            if res.is_deep_hole:
                entry["distance"] = radius
            else:
                entry["distance_upper"] = radius - 1
            if crosscheck:
                entry["distance"] = dist = error_distance_bf(word, budget_subsets).distance
                entry["crosscheck_agree"] = (dist < radius) == (not res.is_deep_hole)
            yield entry

    return code, crosscheck, reports()


def _run_deephole(cfg: ExperimentConfig, F: FiniteField) -> list[InstanceResult]:
    out = []
    for cell, spec, size in _cells(cfg, F, out, value_set_size):
        for k in cfg.k:
            params = dict(cell, k=k)
            try:
                _, crosscheck, reports = _deep_holes(spec, k, cfg.budget_dp, cfg.budget_subsets,
                                                     fall_back=True)
            except ValueError as e:
                skip = getattr(e, "skip", f"budget ({e})")
                out.append(InstanceResult(params, "skipped", f"skipped: {skip}"))
                continue
            bad, total_nu = None, 0
            for entry in reports:
                total_nu += entry["n_u"]
                if not entry.get("crosscheck_agree", True):
                    bad = (f"b1={entry['b1']}: distance {entry['distance']} "
                           f"vs subset-sum {entry['is_deep_hole']}")
                    break
            fall = perm(size, k + 1)
            if bad is None and total_nu != fall:
                bad = f"sum N_u = {total_nu} != (|D|)_{{k+1}} = {fall}"
            only = "" if crosscheck else " (subset-sum only)"
            detail = bad or f"all {F.q} b1 values agree{only}"
            out.append(_checked(params, bad is None, detail))
    return out


def _run_region(cfg: ExperimentConfig, F: FiniteField) -> list[InstanceResult]:
    from .sieve import main_bound_check, region_solve

    out = []
    seen = set()
    for params, spec, size_d in _cells(cfg, F, out, value_set_size):
        key = (spec.n, size_d)
        if key in seen:
            continue
        seen.add(key)
        try:
            region = region_solve(F.q, spec.n, size_d, cfg.c1)
        except ValueError as e:
            out.append(InstanceResult(params, "skipped", f"skipped: {e}"))
            continue
        # the bound chain must guarantee both ends of the window; an empty
        # window is a legitimate outcome, not a failure
        ok = region.k_max < region.k_min or all(
            main_bound_check(F.q, spec.n, size_d, k).guaranteed
            for k in (region.k_min, region.k_max)
        )
        detail = f"k_min={region.k_min} k_max={region.k_max} size_d={size_d}"
        if region.k_max < region.k_min:
            detail += " (empty window)"
        if region.paper_claim is not None:
            detail += f" paper_claim={region.paper_claim}"
        out.append(_checked(params, ok, detail))
    return out


_SUITE_RUNNERS = {
    "valueset": _run_valueset,
    "preimage": _run_preimage,
    "charsum": _run_charsum,
    "sieve": _run_sieve,
    "deephole": _run_deephole,
    "region": _run_region,
}


def run_suite(cfg: ExperimentConfig) -> RunReport:
    """Execute the selected suites over the configured grid."""
    F = cfg.validate()
    suites = []
    for name in cfg.selected_suites():
        t0 = time.perf_counter()
        instances = _SUITE_RUNNERS[name](cfg, F)
        suites.append(
            SuiteResult(name=name, instances=instances, wall_clock=time.perf_counter() - t0)
        )
    return RunReport(config=cfg.echo(), version=__version__, suites=suites)


def emit(report: RunReport, fmt: str) -> str:
    """Serialize a run report; byte-identical for identical configs."""
    if fmt == "json":
        return _dump_json(report.to_json_dict())
    if fmt == "csv":
        import csv  # deferred: only CSV reports need it

        buf = io.StringIO()
        fields = ["suite", "q", "n", "a", "k", "b1", "x0", "check", "status", "detail"]
        writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
        writer.writeheader()
        for s in report.suites:
            for i in s.instances:
                writer.writerow({"suite": s.name, **i.params, "status": i.status,
                                 "detail": i.detail})
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# JSON helpers for the one-shot subcommands


class Records(list):
    """Tuples of values under `keys`, each column all ints or all strs; as a
    report or a dict value, `_dump_json` writes each as the object of those keys."""

    def __init__(self, keys: tuple[str, ...], rows):
        super().__init__(rows)
        self.keys = keys


def _dump_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for
    byte, with each `Records` read as its list of objects.

    An indent makes json.dumps run its pure-Python encoder, so `Records`,
    such as `preimage --all-x0`'s, are written column by column instead.
    """
    return _json_text(obj, "\n") + "\n"


# exact type -> its column's texts as json.dumps writes them (a bool column is not int)
_JSON_COLUMN = {str: partial(map, _json_str), int: partial(map, int.__repr__)}


def _json_text(obj, pad: str) -> str:
    """obj's json.dumps text, each line break followed by pad ("\n" + indent);
    dicts with str keys recurse, nonempty `Records` go column by column, and
    anything else is json.dumps's own text (escaped JSON holds no raw newline)."""
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        inner = pad + "  "
        return "{" + ",".join(f"{inner}{_json_str(k)}: {_json_text(v, inner)}"
                              for k, v in sorted(obj.items())) + pad + "}"
    if type(obj) is Records and obj:
        return _json_records(obj, pad)
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


def _json_records(rows: Records, pad: str) -> str:
    """The text of nonempty records, column by column."""
    order = sorted(range(len(rows.keys)), key=rows.keys.__getitem__)
    cols = []
    for i in order:
        (kind,) = set(map(type, map(itemgetter(i), rows)))  # one type per column
        cols.append(_JSON_COLUMN[kind](map(itemgetter(i), rows)))
    inner, field = pad + "  ", pad + "    "
    row = inner + "{" + ",".join(field + _json_str(rows.keys[i]).replace("%", "%%") + ": %s"
                                 for i in order) + inner + "}"
    return "[" + ",".join(map(row.__mod__, zip(*cols))) + pad + "]"


def _write_output(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_field(args, F: FiniteField) -> tuple[dict, bool]:
    doc = {"p": F.p, "m": F.m, "q": F.q, "modulus": list(F.modulus), "spec": F.spec_string()}
    return doc, True


def _cmd_value_set(args, F: FiniteField) -> tuple[dict, bool]:
    spec = DicksonSpec(F, args.n, args.a)
    if args.formula and args.elems:
        raise ValueError("--elems lists the enumerated set; it cannot be used with --formula")
    doc = {"q": F.q, "n": args.n, "a": args.a}
    if not args.brute_force:
        rep = value_set_size_formula(spec)
        doc["size_formula"] = rep.size
        doc["delta"] = float(rep.delta)
    if not args.formula:
        vs = value_set(spec)
        doc["size_enum"] = vs.size
        if args.elems:
            doc["elems"] = list(vs.elems)
    if "size_formula" in doc and "size_enum" in doc:
        doc["match"] = doc["size_formula"] == doc["size_enum"]
    return doc, doc.get("match", True)


def _cmd_preimage(args, F: FiniteField) -> tuple[dict, bool]:
    spec = DicksonSpec(F, args.n, args.a)
    xs = F.elements() if args.all_x0 else [args.x0]
    reports = Records(("x0", "value", "count", "case"), preimage_counts(spec, xs))
    return {"q": F.q, "n": args.n, "a": args.a, "reports": reports}, True


def _charsum_entry(which: str, b: int, result) -> dict:
    from .charsum import TOL_IDENTITY, TOL_SLACK

    def report_dict(rep) -> dict:
        doc = rep._asdict()
        doc["sum"] = [rep.sum.real, rep.sum.imag]
        doc["pass"] = rep.slack >= -TOL_SLACK
        return doc

    entry = {"b": b, "which": which}
    if which == "weil3":
        r1, r2 = result
        entry["sum_1"] = report_dict(r1)
        entry["sum_2"] = report_dict(r2)
        entry["pair_deviation"] = abs(r1.sum - r2.sum)
        entry["pass"] = (min(r1.slack, r2.slack) >= -TOL_SLACK
                         and entry["pair_deviation"] <= TOL_IDENTITY)
    elif which == "identity":
        entry["deviation"] = result
        entry["tolerance"] = TOL_IDENTITY
        entry["pass"] = result <= TOL_IDENTITY
    else:
        entry.update(report_dict(result))
    return entry


def _cmd_charsum(args, F: FiniteField) -> tuple[dict, bool]:
    from .charsum import SUMS, CellSums, character_sum, characters_by_powers, require_sum

    spec = DicksonSpec(F, args.n, args.a)
    cell = CellSums(spec)
    if args.all_characters:
        require_sum(args.which, spec)
        walk_sum = SUMS[args.which]
        results = sorted((b, walk_sum(cell, tab)) for b, tab in characters_by_powers(F))
    else:
        b = 1 if args.b is None else args.b
        results = [(b, character_sum(args.which, cell, b))]
    reports = [_charsum_entry(args.which, b, result) for b, result in results]
    doc = {"q": F.q, "n": args.n, "a": args.a, "reports": reports}
    return doc, all(entry["pass"] for entry in reports)


def _cmd_deephole(args, F: FiniteField) -> tuple[dict, bool]:
    if args.budget_subsets is not None and not args.brute_force_crosscheck:
        raise ValueError("--budget-subsets caps the crosscheck; it needs --brute-force-crosscheck")
    budget = DEFAULT_SUBSET_BUDGET if args.budget_subsets is None else args.budget_subsets
    if args.word is not None:
        values = json.loads(args.word)
        if not isinstance(values, list) or any(type(v) is not int for v in values):
            raise ValueError("--word must be a JSON array of integer element encodings")
        make_word, sources = ReceivedWord, [values]
    elif args.word_poly is not None:
        make_word, sources = ReceivedWord.from_poly, [parse_poly_literal(F, args.word_poly)]
    else:
        make_word, sources = monomial_word, (None if args.all_b1 else [args.b1])
    code, _, reports = _deep_holes(DicksonSpec(F, args.n, args.a), args.k, args.budget_dp,
                                   budget if args.brute_force_crosscheck else None,
                                   make_word, sources)
    doc = {"q": F.q, "n": args.n, "a": args.a, "size_d": code.length,
           "covering_radius": code.length - code.k, "reports": list(reports)}
    return doc, all(r.get("crosscheck_agree", True) for r in doc["reports"])


def _size_d(args, F: FiniteField) -> int:
    """--size-d, or else the value-set size formula for D_n(x, a), a = --a or 1."""
    a = 1 if args.a is None else args.a
    return value_set_size(DicksonSpec(F, args.n, a)) if args.size_d is None else args.size_d


def _cmd_bound(args, F: FiniteField) -> tuple[dict, bool]:
    from .sieve import main_bound_check

    return main_bound_check(F.q, args.n, _size_d(args, F), args.k)._asdict(), True


def _cmd_region(args, F: FiniteField) -> tuple[dict, bool]:
    from .sieve import region_solve

    return region_solve(F.q, args.n, _size_d(args, F), args.c1)._asdict(), True


def _cmd_suite(args) -> int:
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    flags = {key: getattr(args, key.replace("-", "_")) for key in _SETTINGS}
    cfg = ExperimentConfig.from_text(text, {k: v for k, v in flags.items() if v is not None})
    report = run_suite(cfg)
    _write_output(emit(report, cfg.format), cfg.out)
    for s in report.suites:
        counts = s.counts()
        print(
            f"[suite {s.name}] pass={counts['pass']} fail={counts['fail']} "
            f"skipped={counts['skipped']} wall={s.wall_clock:.2f}s",
            file=sys.stderr,
        )
    return 0 if report.overall_pass else 1


# ---------------------------------------------------------------------------
# parser: each subcommand declares exactly the flags its handler reads


def _add_field(sp):
    sp.add_argument("--field", required=True, help=_SETTINGS["field"][1])
    sp.add_argument("--out", help=_SETTINGS["out"][1])


def _add_spec(sp, a_group=None):
    """--n, and --a: required, or optional in `a_group` if one is given."""
    sp.add_argument("--n", type=int, required=True)
    (a_group or sp).add_argument("--a", type=int, required=a_group is None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dickson",
        description="Deep-hole experiments for Reed-Solomon codes on Dickson value sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="describe a finite field")
    _add_field(sp)
    sp.set_defaults(fn=_cmd_field)

    sp = sub.add_parser("value-set", help="value set of D_n(x,a): formula and/or enumeration")
    _add_field(sp)
    _add_spec(sp)
    group = sp.add_mutually_exclusive_group()  # neither flag: formula and enumeration
    group.add_argument("--brute-force", action="store_true")
    group.add_argument("--formula", action="store_true")
    sp.add_argument("--elems", action="store_true", help="include the sorted element list")
    sp.set_defaults(fn=_cmd_value_set)

    sp = sub.add_parser("preimage", help="exact preimage counts with case labels")
    _add_field(sp)
    _add_spec(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--x0", type=int)
    group.add_argument("--all-x0", action="store_true")
    sp.set_defaults(fn=_cmd_preimage)

    sp = sub.add_parser("charsum", help="character sums and their bounds")
    _add_field(sp)
    _add_spec(sp)
    sp.add_argument("--which", required=True,
                    choices=("lemma", "weil1", "weil2", "weil3", "identity"))
    group = sp.add_mutually_exclusive_group()
    # no argparse default: a value equal to it would not count as given, so
    # "--b 1 --all-characters" would pass the exclusion check
    group.add_argument("--b", type=int, help="character twist (default 1)")
    group.add_argument("--all-characters", action="store_true")
    sp.set_defaults(fn=_cmd_charsum)

    sp = sub.add_parser("deephole", help="degree-(k+1) deep-hole test via subset sums")
    _add_field(sp)
    # no --budget-subsets default: any value given needs --brute-force-crosscheck
    for key, default in (("budget-subsets", None), ("budget-dp", DEFAULT_DP_BUDGET)):
        sp.add_argument(f"--{key}", type=int, default=default, help=_SETTINGS[key][1])
    _add_spec(sp)
    sp.add_argument("--k", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--b1", type=int, help="test the word x^(k+1) - b1*x^k over D")
    group.add_argument("--all-b1", action="store_true")
    group.add_argument("--word", help="JSON array of |D| element encodings")
    group.add_argument("--word-poly", help="polynomial literal c0,c1,... evaluated over D")
    sp.add_argument("--brute-force-crosscheck", action="store_true")
    sp.set_defaults(fn=_cmd_deephole)

    for name, help_, (flag, type_), fn in (
        ("bound", "falling-factorial guarantee check", ("--k", int), _cmd_bound),
        ("region", "feasible message-length window", ("--c1", float), _cmd_region),
    ):
        sp = sub.add_parser(name, help=help_)
        _add_field(sp)
        # --a only picks D for the size formula; no default, as for charsum --b
        group = sp.add_mutually_exclusive_group()
        _add_spec(sp, group)
        group.add_argument("--size-d", type=int,
                           help="override |D| (default: size formula of D_n(x, a), a = 1)")
        sp.add_argument(flag, type=type_, required=True)
        sp.set_defaults(fn=fn)

    # every suite flag stays a raw string (None when absent) and goes through
    # the config parser, so it overrides the file's value only when given
    sp = sub.add_parser("suite", help="run verification suites over a grid")
    sp.add_argument("--config", help="key=value config file; flags override its values")
    for key, (_, help_) in _SETTINGS.items():
        sp.add_argument(f"--{key}", help=help_.format_map(ExperimentConfig._field_defaults))

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        doc, ok = args.fn(args, parse_field_spec(args.field))
        _write_output(_dump_json(doc), args.out)
        return 0 if ok else 1
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
