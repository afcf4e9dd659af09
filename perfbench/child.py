"""One benchmark pass, run in its own process by run.py.

    python3 child.py --src DIR --result FILE [--trace 0|1] [--probe]
                     (--witness INPUTS | -- WORKBENCH_ARGS...)

With WORKBENCH_ARGS the pass is the ``workbench`` command line (the same
``reflection_workbench.cli:main`` the console script calls).  With
--witness it calls the public check functions on the negative controls
listed in INPUTS and writes their reports next to it.

The result file records, on CLOCK_MONOTONIC (shared by all processes),
when the first check was called and when the verdict was reached.  With
--probe the process exits at the first check call: a set-up sample.
With --trace 1 the package is wrapped by tracer.install and the spans are
written to spans.json after the verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import traceback


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=1)
        handle.write("\n")


class _FirstCheck:
    """Timestamps the first check call; in probe mode ends the process there."""

    def __init__(self, result_path, probe):
        self.at = None
        self._result_path = result_path
        self._probe = probe

    def mark(self):
        if self.at is not None:
            return
        self.at = time.monotonic()
        if self._probe:
            _write_json(self._result_path, {"first_check": self.at})
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            self.mark()
            return fn(*args, **kwargs)

        return wrapper


def _witness_controls(inputs_path, first_check, recorder):
    """Negative controls through the public API; each must fail.  When
    traced, each control opens a span that starts a new check id."""
    from reflection_workbench.evaluation import DoubleEval, check_double_relations, eval_double
    from reflection_workbench.fusion import GradedFamily, SeedSolution
    from reflection_workbench.kernel import (
        LegSpace,
        matrix_on_leg,
        op_scale,
        orthogonal_transposition,
        parse_matrix_json,
    )
    from reflection_workbench.rmatrix import RFamily, flip_p
    from reflection_workbench.verify import check_characteristic, check_fused_re

    base = os.path.dirname(os.path.abspath(inputs_path))
    with open(inputs_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)

    def matrix(name):
        with open(os.path.join(base, spec[name]), "r", encoding="utf-8") as handle:
            return parse_matrix_json(json.load(handle))

    n = spec["n"]
    t = orthogonal_transposition(n)
    fam = RFamily.build(n, t)
    seed = SeedSolution(matrix_on_leg(matrix("seed_x"), LegSpace(n, "u")), t, skip_check=True)
    family = GradedFamily.from_seed(seed, k_max=2)
    character = GradedFamily.from_character(matrix("character_x"), t, k_max=2)
    good = eval_double(n)
    kick = op_scale(flip_p(n, good.uvar, good.zvar, ("auxiliary", "quantum")),
                    spec["perturbation"])
    broken = DoubleEval(good.l_plus, good.l_minus + kick, good.denom_plus,
                        good.denom_minus, skip_check=True)

    controls = [
        (f"fused_re k={k},m={m}", lambda k=k, m=m: check_fused_re(family, fam, k, m))
        for k in (1, 2)
        for m in (1, 2)
    ]
    controls.append(("characteristic_unprimed",
                     lambda: check_characteristic(character, fam, 2, 1, primed_middle=False)))
    controls.append(("double_relations perturbed", lambda: check_double_relations(broken)))

    first_check.mark()
    results = []
    for label, call in controls:
        if recorder is not None:
            call = recorder.span("bench.control", call, new_check=True)
        try:
            report = call()
        except Exception:  # a crashing control is counted as failed by run.py
            traceback.print_exc()
            results.append({"control": label, "error": traceback.format_exc()})
            continue
        results.append({
            "control": label,
            "name": report.name,
            "params": report.params,
            "passed": report.passed,
            "witness": report.witness,
        })
    _write_json(os.path.join(base, "controls.json"), results)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--witness", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, os.path.abspath(args.src))
    from reflection_workbench import cli

    first_check = _FirstCheck(args.result, args.probe)
    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.split(".")[0] == "reflection_workbench"]
        tracer.install(recorder, modules)
    if args.witness is not None:
        code = _witness_controls(args.witness, first_check, recorder)
    else:
        for name, spec in list(cli.REGISTRY.items()):
            cli.REGISTRY[name] = dataclasses.replace(spec, runner=first_check.wrap(spec.runner))
        code = cli.main(cli_args)
    verdict = time.monotonic()
    if recorder is not None:
        recorder.dump(os.path.join(os.path.dirname(os.path.abspath(args.result)),
                                   "spans.json"))
    _write_json(args.result, {"first_check": first_check.at, "verdict": verdict, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
