"""Seeded inputs for the four workloads.

A seed picks the nonzero values of every generated matrix on a fixed
sparsity pattern; nothing else about a workload depends on it.  Each
matrix draws a fixed set of distinct magnitudes, placed in a seeded
order with seeded signs.  Distinct magnitudes keep entries from
cancelling (x = g at n = 4 peaks at 368 MB against 419 MB for a generic
x), and a fixed set keeps the coefficient sizes, and so the cost, the
same for every seed (drawing from 2..7 moved the n = 4 peak between 419
and 447 MB).

generate() writes every input file into the run's directory and returns
the manifest that run.py records there, so a run can be repeated from
its directory alone (run.py --replay).
"""

from __future__ import annotations

import hashlib
import json
import os
import random

DEFAULT_SEED = 0

# The 25 records of configs/suite.json when the benchmark was defined,
# kept here so that the demo-suite workload does not change when the
# shipped demo config does.  "g" and "x" name the seeded 2x2 skew files.
# The order stays fixed: with two threads the order decides which checks
# overlap, and shuffling it moved the peak RSS between 32.5 and 42.8 MB
# across ten seeds.
DEMO_RECORDS = (
    {"name": "ybe", "n": 2},
    {"name": "ybe", "n": 3},
    {"name": "quasi_inverse", "n": 2},
    {"name": "quasi_inverse", "n": 3},
    {"name": "tau_symmetry", "n": 2},
    {"name": "tau_symmetry", "n": 3},
    {"name": "tau_symmetry", "g": "g"},
    {"name": "rtt_evaluation", "n": 2},
    {"name": "rtt_evaluation", "n": 3},
    {"name": "twisted_evaluation", "n": 2},
    {"name": "twisted_evaluation", "n": 3},
    {"name": "twisted_evaluation", "g": "g"},
    {"name": "double_yangian", "n": 2},
    {"name": "double_yangian", "n": 3},
    {"name": "pairing", "n": 2, "K": 10},
    {"name": "fused_re", "n": 2, "kmax": 2},
    {"name": "fused_re", "x": "x", "g": "g", "kmax": 2},
    {"name": "membership", "n": 2},
    {"name": "membership", "x": "x", "g": "g"},
    {"name": "characteristic", "n": 2},
    {"name": "characteristic", "x": "x", "g": "g"},
    {"name": "intertwiner", "n": 2, "K": 4, "kmax": 1},
    {"name": "intertwiner", "x": "x", "K": 4, "kmax": 1},
    {"name": "embedding", "n": 2, "level": 2},
    {"name": "embedding", "g": "g", "level": 2},
)
DEMO_DEFAULTS = {"K": 8, "kmax": 3, "level": 2}
DEMO_PARALLELISM = 2

# negative controls of the witness workload, in the order child.py runs them
WITNESS_CONTROLS = (
    "fused_re k=1,m=1",
    "fused_re k=1,m=2",
    "fused_re k=2,m=1",
    "fused_re k=2,m=2",
    "characteristic_unprimed",
    "double_relations perturbed",
)


def _values(rng, magnitudes):
    order = rng.sample(magnitudes, len(magnitudes))
    return [magnitude * rng.choice((1, -1)) for magnitude in order]


def _skew(n, values):
    """Skew matrix on the pattern of the standard skew form: (i, n/2 + i)."""
    half = n // 2
    m = [[0] * n for _ in range(n)]
    for i, value in enumerate(values):
        m[i][half + i] = value
        m[half + i][i] = -value
    return m


def _diagonal(values):
    size = len(values)
    return [[values[i] if i == j else 0 for j in range(size)] for i in range(size)]


def _write_matrix(run_dir, name, matrix):
    data = {"n": len(matrix), "entries": [[str(value) for value in row] for row in matrix]}
    _write_json(run_dir, name, data)


def _write_json(run_dir, name, data):
    with open(os.path.join(run_dir, name), "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _fused_re(rng, run_dir):
    _write_matrix(run_dir, "g.json", _skew(4, [1, 1]))
    _write_matrix(run_dir, "x.json", _skew(4, _values(rng, (2, 3))))
    argv = ["check", "fused_re", "--kmax", "2", "--g", "g.json", "--x", "x.json",
            "--out", "report.json"]
    return {"kind": "cli", "argv": argv, "checks": 1}


def _mode_algebra(rng, run_dir):
    _write_matrix(run_dir, "g3.json", _diagonal(_values(rng, (2, 3, 5))))
    _write_matrix(run_dir, "g4.json", _skew(4, _values(rng, (2, 3))))
    config = {
        "checks": [
            {"name": "embedding", "g": "g3.json", "level": 2},
            {"name": "embedding", "g": "g4.json", "level": 2},
        ],
        "out": "report.json",
        "parallelism": 1,
    }
    _write_json(run_dir, "suite.json", config)
    return {"kind": "cli", "argv": ["suite", "--config", "suite.json"], "checks": 2}


def _witness(rng, run_dir):
    a, b, c, d = _values(rng, (2, 3, 5, 7))
    # upper triangular, so never symmetric or skew: every control must fail
    _write_matrix(run_dir, "seed_x.json", [[a, b, 0], [0, c, 0], [0, 0, d]])
    _write_matrix(run_dir, "character_x.json", _diagonal(_values(rng, (2, 3, 5))))
    spec = {
        "n": 3,
        "seed_x": "seed_x.json",
        "character_x": "character_x.json",
        "perturbation": _values(rng, (3,))[0],
    }
    _write_json(run_dir, "witness.json", spec)
    return {"kind": "witness", "argv": ["--witness", "witness.json"],
            "checks": len(WITNESS_CONTROLS)}


def _demo_suite(rng, run_dir):
    a, b = _values(rng, (2, 3))
    _write_matrix(run_dir, "g2.json", _skew(2, [a]))
    _write_matrix(run_dir, "x2.json", _skew(2, [b]))
    files = {"g": "g2.json", "x": "x2.json"}
    records = [
        {key: files[value] if key in files else value for key, value in record.items()}
        for record in DEMO_RECORDS
    ]
    config = {
        "checks": records,
        "defaults": DEMO_DEFAULTS,
        "out": "report.json",
        "parallelism": DEMO_PARALLELISM,
    }
    _write_json(run_dir, "suite.json", config)
    return {"kind": "cli", "argv": ["suite", "--config", "suite.json"],
            "checks": len(DEMO_RECORDS)}


WORKLOADS = {
    "fused-re": _fused_re,
    "mode-algebra": _mode_algebra,
    "witness": _witness,
    "demo-suite": _demo_suite,
}


def file_digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def generate(name, seed, run_dir):
    """Write the workload's inputs for seed into run_dir; return the manifest."""
    before = set(os.listdir(run_dir))
    manifest = WORKLOADS[name](random.Random(f"{name}:{seed}"), run_dir)
    inputs = sorted(set(os.listdir(run_dir)) - before)
    manifest.update(
        workload=name,
        seed=seed,
        inputs={path: file_digest(os.path.join(run_dir, path)) for path in inputs},
    )
    return manifest
