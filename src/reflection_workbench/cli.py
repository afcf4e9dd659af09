"""Batch entry point for the exact check suites.

Two commands share one pipeline:

    workbench check <name> [--n N] [--g FILE] [--x FILE] [--K ORD]
                           [--kmax K] [--level D] [--out FILE]
    workbench suite --config FILE

Every named check resolves its inputs up front (matrix files, sizes,
truncation orders), runs the exact verification, and contributes one
CheckReport.  _execute is the only place that starts a clock: it times
each runner call once and badges the runner's result under the registry
name.  The emitted document has two sections: a canonical "body"
(sorted keys, checks sorted by name then parameters, no timing data)
that is byte-reproducible for a fixed configuration, and a "timing"
section that is allowed to vary between runs.

Exit codes: 0 when every check passed, 1 when any check failed, 2 for
usage or input errors (unknown check name, malformed matrix or config
file, parameter out of bounds, or a report file that cannot be opened,
which is found before the first check runs).

Paths inside a config file are resolved relative to the config file's
directory; paths given on the command line are resolved relative to the
working directory.  Checks run one after another in the calling
process; the report is assembled by sorting, so the canonical body does
not depend on the order of the checks in the configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .evaluation import (
    build_twisted_s,
    check_double_relations,
    eval_double,
    eval_t,
    pairing_series,
)
from .fusion import GradedFamily
from .kernel import (
    LaurentPoly,
    Transposition,
    format_rational,
    identity_matrix,
    op_substitute,
    orthogonal_transposition,
    parse_matrix_json,
)
from .modes import verify_twisted_embedding
from .rmatrix import RFamily, yang_r, yang_r_bar
from .verify import (
    CheckReport,
    check_characteristic,
    check_fused_re,
    check_intertwiner,
    check_membership,
    check_pairing,
    check_quasi_inverse,
    check_re,
    check_rtt,
    check_tau_symmetry,
    check_ybe,
)

DEFAULT_N = 2
PARAM_DEFAULTS = {"K": 8, "kmax": 3, "level": 2}
_INT_MINIMA = {"n": 2, "K": 0, "kmax": 0, "level": 1, "parallelism": 1}


class UsageError(ValueError):
    """Bad invocation or bad input file; the process should exit with 2."""


# -- input files ---------------------------------------------------------


def _read_json(path, kind):
    """The parsed JSON of a matrix or config file; read errors are usage
    errors that name the kind of file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {kind} file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{kind} file {path} is not valid JSON: {exc}") from None


def load_matrix(path):
    """Read a rational matrix file {"n": N, "entries": [["p/q", ...], ...]}.

    Entries must be exact integer or fraction literals; decimal forms are
    rejected.  Constraints beyond squareness (symmetry, invertibility)
    are left to whichever consumer needs them.
    """
    data = _read_json(path, "matrix")
    try:
        return parse_matrix_json(data)
    except ValueError as exc:
        raise UsageError(f"matrix file {path}: {exc}") from None


def form_transposition(g):
    """Wrap a loaded form matrix; Transposition reads the sign off g."""
    try:
        return Transposition(g)
    except ValueError as exc:
        raise UsageError(f"form matrix rejected: {exc}") from None


def _matrix_strings(matrix):
    return [[format_rational(value) for value in row] for row in matrix]


# -- suite configuration ---------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """A batch of named checks plus shared inputs.

    The JSON file form mirrors the fields one-to-one:

        {"checks": [{"name": "ybe", "n": 3}, ...],
         "inputs": {"x": "x.json", "g": "g.json"},
         "defaults": {"K": 8, "kmax": 3, "level": 2},
         "out": "report.json"}

    Only "checks" is required.  Older files may also carry an integer
    "parallelism" >= 1; it is validated and has no effect.  base_dir
    records where a loaded file lived so its relative paths stay
    meaningful; it is derived context, not part of the configuration
    value.  from_json_dict is the one validator: a SuiteConfig built
    directly is taken as it is.
    """

    checks: tuple
    inputs: dict
    defaults: dict
    out: str | None
    base_dir: str | None = field(default=None, compare=False)

    @staticmethod
    def from_json_dict(data, base_dir=None):
        if not isinstance(data, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(data) - {"checks", "inputs", "defaults", "out", "parallelism"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "checks" not in data or not isinstance(data["checks"], list):
            raise UsageError('config needs a "checks" list')
        supplied = data.get("defaults", {})
        if not isinstance(supplied, dict):
            raise UsageError('"defaults" must be an object')
        unknown = set(supplied) - set(PARAM_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown default keys: {sorted(unknown)}")
        defaults = {**PARAM_DEFAULTS, **supplied}
        inputs = data.get("inputs", {})
        if not isinstance(inputs, dict):
            raise UsageError('"inputs" must be an object')
        if "parallelism" in data:
            _validate_int("parallelism", data["parallelism"])
        for record in data["checks"]:
            _validate_record(record)
        unknown = set(inputs) - {"x", "g"}
        if unknown:
            raise UsageError(f"unknown input file keys: {sorted(unknown)}")
        for key, value in inputs.items():
            if not isinstance(value, str):
                raise UsageError(f'input path "{key}" must be a string, got {value!r}')
        for key, value in defaults.items():
            _validate_int(key, value)
        out = data.get("out")
        if out is not None and not isinstance(out, str):
            raise UsageError(f"out must be a path string, got {out!r}")
        return SuiteConfig(
            checks=tuple(data["checks"]),
            inputs=inputs,
            defaults=defaults,
            out=out,
            base_dir=base_dir,
        )

    @property
    def report_path(self):
        """out resolved against the config file's directory; None for stdout."""
        return self.out and _resolve_path(self.base_dir, self.out)

    @staticmethod
    def from_file(path):
        base_dir = os.path.dirname(os.path.abspath(path))
        return SuiteConfig.from_json_dict(_read_json(path, "config"), base_dir=base_dir)


def _validate_int(key, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f'"{key}" must be an integer, got {value!r}')
    minimum = _INT_MINIMA[key]
    if value < minimum:
        raise UsageError(f'"{key}" must be >= {minimum}, got {value}')


def _validate_record(record):
    if not isinstance(record, dict):
        raise UsageError(f"check record must be an object, got {record!r}")
    name = record.get("name")
    if not isinstance(name, str) or name not in REGISTRY:
        raise UsageError(f"unknown check name: {name!r}")
    allowed = {"name"} | REGISTRY[name].needs
    extras = set(record) - allowed
    if extras:
        raise UsageError(
            f'check "{name}" does not accept {sorted(extras)}; '
            f"allowed parameters: {sorted(allowed - {'name'})}"
        )
    for key in ("n", "K", "kmax", "level"):
        if key in record:
            _validate_int(key, record[key])
    for key in ("g", "x"):
        if key in record and not isinstance(record[key], str):
            raise UsageError(f'"{key}" must be a file path string, got {record[key]!r}')


# -- job resolution ---------------------------------------------------------


@dataclass(frozen=True)
class _CheckSpec:
    name: str
    needs: frozenset
    runner: object
    summary: str
    # below this a check has no instance that can fail and would pass vacuously
    least_kmax: int = 0


def _resolve_path(base_dir, path):
    if base_dir is None or os.path.isabs(path):
        return path
    return os.path.join(base_dir, path)


def _resolve_record(record, cfg):
    """Turn one check record into a runnable (spec, resolved) job, loading
    any input files."""
    spec = REGISTRY[record["name"]]
    loaded = {}
    for key in ("g", "x"):
        path = record.get(key, cfg.inputs.get(key))
        if key in spec.needs and path is not None:
            loaded[key] = load_matrix(_resolve_path(cfg.base_dir, path))

    n = record.get("n")
    sizes = {key: len(matrix) for key, matrix in loaded.items()}
    if n is not None:
        for source, size in sizes.items():
            if size != n:
                raise UsageError(
                    f'check "{spec.name}": n={n} conflicts with the '
                    f"{source} matrix of size {size}"
                )
    elif sizes:
        if len(set(sizes.values())) > 1:
            raise UsageError(
                f'check "{spec.name}": matrix sizes disagree: '
                + ", ".join(f"{k}={v}" for k, v in sorted(sizes.items()))
            )
        n = next(iter(sizes.values()))
        if n < _INT_MINIMA["n"]:
            raise UsageError(f'check "{spec.name}": matrices must be at least 2x2')
    else:
        n = DEFAULT_N

    resolved = {"n": n}
    public = {"n": n}
    if "g" in spec.needs:
        t = form_transposition(loaded["g"]) if "g" in loaded else orthogonal_transposition(n)
        resolved["t"] = t
        public["kind"] = t.kind
        public["g"] = _matrix_strings(t.g)
    for key in ("K", "kmax", "level"):
        if key in spec.needs:
            resolved[key] = public[key] = record.get(key, cfg.defaults[key])
    if "x" in spec.needs:
        x = loaded["x"] if "x" in loaded else identity_matrix(n)
        # characteristic_unprimed takes no kmax: it runs at (k, i) = (2, 1)
        k_max = resolved.get("kmax", 2)
        try:
            resolved["chi"] = GradedFamily.from_character(x, resolved["t"], k_max=k_max)
        except ValueError as exc:
            raise UsageError(f'check "{spec.name}": {exc}') from None
        public["x"] = _matrix_strings(x)
    if resolved.get("kmax", 0) < spec.least_kmax:
        raise UsageError(
            f'check "{spec.name}": kmax must be >= {spec.least_kmax}, got {resolved["kmax"]}'
        )
    return spec, dict(resolved, public=public)


# -- runners ---------------------------------------------------------
#
# A runner returns its inner CheckReport, or its list of (tag, report)
# instances; _execute badges either one under the registry name.  The
# character runners read the graded family p["chi"] built at resolution.


def _run_ybe(p):
    return check_ybe(yang_r(p["n"]))


def _run_quasi_inverse(p):
    return check_quasi_inverse(yang_r(p["n"]), *yang_r_bar(p["n"]))


def _run_tau_symmetry(p):
    return check_tau_symmetry(yang_r(p["n"]), p["t"])


def _run_rtt_evaluation(p):
    t_op = eval_t(p["n"])
    inner = check_rtt(yang_r(p["n"]), t_op)
    u, z = (LaurentPoly.var(leg.spectral_var) for leg in t_op.legs)
    return replace(inner, params=dict(inner.params, denominator=str(u - z)))


def _run_twisted_evaluation(p):
    n, t = p["n"], p["t"]
    s1 = build_twisted_s(eval_t(n), t)
    s2 = op_substitute(s1, {"u": "v"})
    return check_re(RFamily.build(n, t), s1, s2)


def _run_double_yangian(p):
    return check_double_relations(eval_double(p["n"]))


def _run_pairing(p):
    return check_pairing(pairing_series(p["n"], p["K"]), p["K"])


def _run_fused_re(p):
    fam = RFamily.build(p["n"], p["t"])
    span = range(1, p["kmax"] + 1)
    return [(f"k={k},m={m}", check_fused_re(p["chi"], fam, k, m)) for k in span for m in span]


def _run_membership(p):
    # the exchange condition compares adjacent sites, so the smallest
    # component with any content is k = 2
    return [(f"k={k}", check_membership(p["chi"].component(k))) for k in range(2, p["kmax"] + 1)]


def _run_characteristic(p):
    fam = RFamily.build(p["n"], p["t"])
    return [(f"k={k},i={i}", check_characteristic(p["chi"], fam, k, i))
            for k in range(p["kmax"] + 1) for i in range(k + 1)]


def _run_characteristic_unprimed(p):
    # negative control: the middle factor must be the primed block, and
    # this check deliberately runs the unprimed variant at (k, i) = (2, 1)
    fam = RFamily.build(p["n"], p["t"])
    return check_characteristic(p["chi"], fam, 2, 1, primed_middle=False)


def _run_intertwiner(p):
    fam = RFamily.build(p["n"], p["t"])
    span = range(1, p["kmax"] + 1)
    return [(f"k={k},m={m}", check_intertwiner(p["chi"], fam, p["K"], k, m))
            for k in span for m in span]


def _run_embedding(p):
    return verify_twisted_embedding(p["n"], p["level"], p["t"])


REGISTRY = {
    spec.name: spec
    for spec in (
        _CheckSpec("ybe", frozenset({"n"}), _run_ybe,
                   "Yang-Baxter equation for the rational R-matrix"),
        _CheckSpec("quasi_inverse", frozenset({"n"}), _run_quasi_inverse,
                   "R times its partner equals the central factor"),
        _CheckSpec("tau_symmetry", frozenset({"n", "g"}), _run_tau_symmetry,
                   "transposition on both legs flips the sites"),
        _CheckSpec("rtt_evaluation", frozenset({"n"}), _run_rtt_evaluation,
                   "evaluation operator satisfies the RTT exchange"),
        _CheckSpec("twisted_evaluation", frozenset({"n", "g"}), _run_twisted_evaluation,
                   "twisted evaluation solution satisfies the reflection equation"),
        _CheckSpec("double_yangian", frozenset({"n"}), _run_double_yangian,
                   "all three defining relation families on cleared forms"),
        _CheckSpec("pairing", frozenset({"n", "K"}), _run_pairing,
                   "cross-multiplied series expansion to order K"),
        _CheckSpec("fused_re", frozenset({"n", "g", "x", "kmax"}), _run_fused_re,
                   "fused reflection equation for character components", least_kmax=1),
        _CheckSpec("membership", frozenset({"n", "g", "x", "kmax"}), _run_membership,
                   "exchange condition for fused character components", least_kmax=2),
        _CheckSpec("characteristic", frozenset({"n", "g", "x", "kmax"}), _run_characteristic,
                   "characteristic identities over all partitions", least_kmax=2),
        _CheckSpec("characteristic_unprimed", frozenset({"n", "g", "x"}), _run_characteristic_unprimed,
                   "negative control with the unprimed middle factor"),
        _CheckSpec("intertwiner", frozenset({"n", "g", "x", "K", "kmax"}), _run_intertwiner,
                   "truncated intertwining identity for characters", least_kmax=1),
        _CheckSpec("embedding", frozenset({"n", "g", "level"}), _run_embedding,
                   "mode-level embedding into the untwisted algebra"),
    )
}


# -- execution ---------------------------------------------------------


def _badge(name, public, result):
    """The registry report for a runner's result.  An inner report keeps
    its params under the public ones; a list of (tag, report) instances
    lists its tags, and the witness cites the first failing instance."""
    if isinstance(result, CheckReport):
        return CheckReport(name, {**result.params, **public}, result.passed, result.witness)
    params = dict(public)
    params["instances"] = [tag for tag, _ in result]
    failed = [(tag, report) for tag, report in result if not report.passed]
    witness = None
    if failed:
        tag, report = failed[0]
        witness = dict(report.witness or {}, instance=tag)
    return CheckReport(name, params, not failed, witness)


def _execute(spec, resolved):
    """Run one job: (its registry report, the milliseconds its runner took).
    This is the one clock of the package."""
    started = time.perf_counter()
    result = spec.runner(resolved)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return _badge(spec.name, resolved["public"], result), elapsed_ms


def _report_sort_key(run):
    report, _ = run
    return (report.name, json.dumps(report.params, sort_keys=True))


def run_suite(cfg):
    """Resolve, run, and sort every check in the configuration; return
    (report, elapsed_ms) pairs.

    All input files are loaded, and the report file is opened, before
    any check runs, so input errors surface as UsageError without partial
    execution.  The sorted result does not depend on the order of the
    records.
    """
    jobs = [_resolve_record(record, cfg) for record in cfg.checks]
    if cfg.report_path is not None:
        _write_report(cfg.report_path, "")
    return sorted((_execute(*job) for job in jobs), key=_report_sort_key)


def report_document(runs):
    """Split (report, elapsed_ms) pairs into the canonical body and the
    timing section."""
    body = {
        "checks": [report.to_json() for report, _ in runs],
        "passed": all(report.passed for report, _ in runs),
        "version": __version__,
    }
    per_check = [{"name": report.name, "elapsed_ms": elapsed} for report, elapsed in runs]
    timing = {
        "per_check": per_check,
        "total_ms": sum(elapsed for _, elapsed in runs),
    }
    return {"body": body, "timing": timing}


def emit_report(runs, path=None):
    """Serialize the report document to a file, or stdout when no path."""
    document = report_document(runs)
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_report(path, text)
    return document


def _write_report(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report to {path}: {exc}") from None


# -- command line ---------------------------------------------------------


def _usage_text():
    lines = [
        "usage: workbench check <name> [--n N] [--g FILE] [--x FILE] [--K ORD]",
        "                       [--kmax K] [--level D] [--out FILE]",
        "       workbench suite --config FILE",
        "",
        "known checks:",
    ]
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        flags = ", ".join(sorted(spec.needs))
        lines.append(f"  {name:24s} {spec.summary} (accepts: {flags})")
    return "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="run exact identity checks and emit a deterministic report",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run a single named check")
    check.add_argument("name")
    check.add_argument("--n", type=int, default=None)
    check.add_argument("--g", default=None, help="form matrix file for the transposition")
    check.add_argument("--x", default=None, help="constant solution matrix file")
    check.add_argument("--K", type=int, default=None, help="truncation order")
    check.add_argument("--kmax", type=int, default=None, help="largest component index")
    check.add_argument("--level", type=int, default=None, help="mode level cap")
    check.add_argument("--out", default=None, help="report file (default: stdout)")
    suite = sub.add_parser("suite", help="run every check in a config file")
    suite.add_argument("--config", required=True)
    return parser


def _config_from_check_args(args):
    keys = ("name", "n", "g", "x", "K", "kmax", "level")
    record = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return SuiteConfig.from_json_dict({"checks": [record], "out": args.out})


def _summary_lines(reports):
    lines = []
    for report in reports:
        scalars = {
            key: value
            for key, value in sorted(report.params.items())
            if isinstance(value, (int, str, bool))
        }
        shown = " ".join(f"{key}={value}" for key, value in scalars.items())
        status = "PASS" if report.passed else "FAIL"
        lines.append(f"{status} {report.name} {shown}".rstrip())
        if report.witness is not None:
            lines.append(f"  witness: {json.dumps(report.witness, sort_keys=True)}")
    passed = sum(1 for report in reports if report.passed)
    lines.append(f"{passed}/{len(reports)} checks passed")
    return lines


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            cfg = _config_from_check_args(args)
        else:
            cfg = SuiteConfig.from_file(args.config)
        runs = run_suite(cfg)
        emit_report(runs, cfg.report_path)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_usage_text(), file=sys.stderr)
        return 2
    reports = [report for report, _ in runs]
    for line in _summary_lines(reports):
        print(line, file=sys.stderr)
    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
