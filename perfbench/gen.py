"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, workdir)`` writes every input file an operation
needs (charge fields, signed measures, quadrature rules, point clouds, pair
lists) under ``workdir`` and returns the fixed operation cycle of the
workload together with the SHA-256 digest of each file.  The generator uses
only NumPy and the standard library, so it never depends on the code under
test, and the same seed always gives byte-identical files.

Operation sizes (charge counts, atom counts, cloud sizes, partition sizes)
are fixed per cycle position; the seed draws positions, strengths, weights
and small size jitters.  That keeps the cost of every cycle nearly the same
from seed to seed while the inputs themselves change.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("identity", "reduction", "partition", "recovery")

# wall time of one cycle of each workload on the reference machine (2 cores,
# Python 3.11, NumPy 2.4); a run of S seconds makes round(S / this) whole
# cycles, so every run of a workload measures the same operations
NOMINAL_CYCLE_S = {"identity": 2.6, "reduction": 9.5, "partition": 6.5, "recovery": 10.5}

# shell radii used by every field-based operation (the CLI defaults)
R0 = 0.3
R = 0.7
CHARGE_RADIUS_CAP = 0.8 * R0

# gate constant of the reduction pipeline on S^2: (d-1) * 8d * sqrt(2d(d+1))
# times the surface area 4*pi of the reference quadrature
_GATE_FACTOR_S2 = 16.0 * math.sqrt(12.0) * 4.0 * math.pi


@dataclass
class Op:
    """One benchmark operation: a CLI command or one recovery call set."""

    index: int
    kind: str  # "cli" or "recovery"
    label: str
    argv: list = field(default_factory=list)
    expect_exit: int = 0
    params: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)


def _fmt(x: float) -> str:
    return repr(float(x))


def sphere_area(dim: int) -> float:
    """Surface area |S^dim| of the unit sphere in R^(dim+1)."""
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def sphere_points(rng, dim: int, count: int) -> np.ndarray:
    """Uniform points on S^dim (normalized Gaussian rows)."""
    pts = rng.normal(size=(count, dim + 1))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def seeded_field(rng, dim: int, charges: int) -> tuple[np.ndarray, np.ndarray]:
    """Charges inside radius 0.8*r0, the first one exactly on that radius.

    Pinning the largest radius and normalizing the total absolute strength
    to 1 fixes the expansion truncation degree, so cost does not drift with
    the seed; directions, inner radii and signed strengths are random.
    """
    dirs = sphere_points(rng, dim, charges)
    radii = CHARGE_RADIUS_CAP * rng.uniform(0.2, 1.0, charges)
    radii[0] = CHARGE_RADIUS_CAP
    strengths = rng.uniform(0.2, 1.0, charges) * rng.choice([-1.0, 1.0], charges)
    strengths /= np.abs(strengths).sum()
    return radii[:, None] * dirs, strengths


def _write(path: Path, text: str, digests: dict, root: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode()
    path.write_bytes(data)
    rel = path.relative_to(root).as_posix()
    digests[rel] = hashlib.sha256(data).hexdigest()
    return str(path)


def _field_text(dim: int, locations, strengths) -> str:
    charges = [
        {"location": [float(x) for x in loc], "strength": float(w)}
        for loc, w in zip(locations, strengths)
    ]
    return json.dumps({"d": dim, "charges": charges}, sort_keys=True) + "\n"


def _measure_text(dim: int, points, weights) -> str:
    lines = [f"# d={dim}"]
    for p, w in zip(points, weights):
        lines.append(",".join(_fmt(x) for x in p) + "," + _fmt(w))
    return "\n".join(lines) + "\n"


def _points_text(dim: int, points) -> str:
    lines = [f"# d={dim}"]
    lines.extend(",".join(_fmt(x) for x in p) for p in points)
    return "\n".join(lines) + "\n"


def _jitter(rng, base: int, share: float = 0.02) -> int:
    return int(base + math.floor(rng.uniform(0.0, share) * base))


# ---------------------------------------------------------------- identity

# (command, d, charges, atoms or rule size, p)
_IDENTITY_CYCLE = (
    ("verify-identity", 2, 3, 50, None),
    ("bound", 2, 4, 100, "1"),
    ("bound", 2, 5, 200, "2"),
    ("bound", 2, 6, 300, "inf"),
    ("verify-identity", 2, 8, 500, None),
    ("corollary3", 2, 5, 400, "2"),
    ("verify-identity", 3, 8, 500, None),
    ("bound", 3, 7, 400, "1"),
    ("bound", 3, 3, 250, "2"),
    ("bound", 3, 5, 150, "inf"),
    ("corollary3", 3, 6, 1000, "inf"),
)

IDENTITY_TOL = 1e-8


def _identity_ops(rng, work: Path, digests: dict, root: Path) -> list:
    ops = []
    for i, (cmd, d, charges, atoms, p) in enumerate(_IDENTITY_CYCLE):
        locs, strengths = seeded_field(rng, d, charges)
        field_path = _write(
            work / f"field_{i:02d}.json", _field_text(d, locs, strengths), digests, root
        )
        argv = [cmd, "--d", str(d), "--field", field_path]
        if cmd == "corollary3":
            pts = sphere_points(rng, d, atoms)
            weights = np.full(atoms, sphere_area(d) / atoms)
            rule_path = _write(
                work / f"rule_{i:02d}.csv", _measure_text(d, pts, weights), digests, root
            )
            argv += ["--rule", rule_path, "--p", p]
            argv += ["--mu-degree", "60"] if d == 2 else ["--degree", "40", "--mu-degree", "20"]
        else:
            pts = sphere_points(rng, d, atoms)
            weights = rng.uniform(-1.0, 1.0, atoms)
            sigma_path = _write(
                work / f"sigma_{i:02d}.csv", _measure_text(d, pts, weights), digests, root
            )
            argv += ["--sigma", sigma_path, "--degree", "200" if d == 2 else "60"]
            if cmd == "bound":
                argv += ["--p", p]
            else:
                argv += ["--tol", repr(IDENTITY_TOL)]
        ops.append(
            Op(i, "cli", f"{cmd} d={d} charges={charges} atoms={atoms}",
               argv=argv, params={"command": cmd, "d": d, "tol": IDENTITY_TOL})
        )
    return ops


# --------------------------------------------------------------- reduction

# (command, cloud size); "thm4b-gate" asks for an epsilon below the gate.
# Ordered by cost.  Two cycles give 18 latencies, and the median (rank 9)
# falls on the block of three n=2800 thm4b ops: heavy ops, whose NumPy share
# makes them the least sensitive to a busy host, and clear of the light ops
# below them, so noise that reorders ops of similar cost barely moves it.
# Clouds stop at n=4000: at n=8000 one thm4b op alone takes about 5 s.
_REDUCTION_CYCLE = (
    ("meshnorm", 1000),
    ("thm4b-gate", 2000),
    ("thm4b", 1000),
    ("meshnorm", 2000),
    ("thm4b", 2800),
    ("thm4b", 2800),
    ("thm4b", 2800),
    ("scaling", None),
    ("thm4b", 4000),
)


def passing_epsilon(n: int) -> float:
    """Target accuracy that clears the S^2 gate with margin for a uniform cloud.

    The covering radius of n uniform random points on S^2 stays below
    2.5 * sqrt(log(n) / n) with overwhelming probability, and the gate asks
    for epsilon above GATE_FACTOR times the (upper) mesh norm; a factor of
    two on top of that leaves room for the sampling error.
    """
    return 2.0 * _GATE_FACTOR_S2 * 2.5 * math.sqrt(math.log(n) / n)


def rejected_epsilon(n: int) -> float:
    """Target accuracy certainly below the S^2 gate for any n-point cloud.

    n caps of chordal radius h have total area n*pi*h^2, so covering S^2
    needs h >= 2/sqrt(n); half of the gate at that radius always fails.
    """
    return 0.5 * _GATE_FACTOR_S2 * 2.0 / math.sqrt(n)


def _reduction_ops(rng, work: Path, digests: dict, root: Path) -> list:
    ops = []
    for i, (cmd, n) in enumerate(_REDUCTION_CYCLE):
        if cmd == "scaling":
            argv = ["scaling", "--d", "2", "--n-values", "256,1024,4096"]
            ops.append(Op(i, "cli", "scaling 256,1024,4096", argv=argv,
                          params={"command": "scaling"}))
            continue
        pts = sphere_points(rng, 2, n)
        cloud = _write(work / f"cloud_{i:02d}.csv", _points_text(2, pts), digests, root)
        if cmd == "meshnorm":
            argv = ["meshnorm", "--d", "2", "--points", cloud]
            ops.append(Op(i, "cli", f"meshnorm n={n}", argv=argv,
                          params={"command": "meshnorm", "n": n}))
            continue
        gate = cmd == "thm4b-gate"
        eps = rejected_epsilon(n) if gate else passing_epsilon(n)
        argv = ["thm4b", "--d", "2", "--points", cloud, "--epsilon", repr(eps)]
        ops.append(
            Op(i, "cli", f"thm4b n={n}" + (" below gate" if gate else ""),
               argv=argv, expect_exit=1 if gate else 0,
               params={"command": "thm4b", "n": n, "gate_reject": gate})
        )
    return ops


# --------------------------------------------------------------- partition

# (command, d, base N, mu-degree), ordered by cost as for reduction: with
# three cycles (24 latencies) the median (rank 12) and the tail (rank 14)
# fall on the block of three d=3 thm4a ops, whose time is mostly NumPy
# potential sums; the Python-heavy exports sit below and above that block
_PARTITION_CYCLE = (
    ("thm4a", 2, 4096, 60),
    ("partition", 2, 10_000, None),
    ("partition", 3, 10_000, None),
    ("thm4a", 3, 4096, 30),
    ("thm4a", 3, 4096, 30),
    ("thm4a", 3, 4096, 30),
    ("partition", 4, 40_000, None),
    ("partition", 2, 100_000, None),
)


def _partition_ops(rng, work: Path, digests: dict, root: Path) -> list:
    ops = []
    for i, (cmd, d, base, mu_degree) in enumerate(_PARTITION_CYCLE):
        n = _jitter(rng, base)
        argv = [cmd, "--d", str(d), "--n", str(n)]
        if cmd == "partition":
            argv += ["--out", str(work / f"partition_{i:02d}.json")]
        else:
            argv += ["--mu-degree", str(mu_degree)]
        ops.append(Op(i, "cli", f"{cmd} d={d} n={n}", argv=argv,
                      params={"command": cmd, "d": d, "n": n}))
    # the partition workload reads no input files; record its arguments
    # so the digest list still pins what the seed produced
    _write(work / "arguments.json",
           json.dumps([op.argv[:5] for op in ops]) + "\n", digests, root)
    return ops


# ---------------------------------------------------------------- recovery

RECOVERY_PAIRS = 100
RECOVERY_GRID = tuple(
    (d, round(d / 2.0 + 0.1 + 0.2 * k, 10)) for d in (2, 3, 4) for k in range(10)
)


def _recovery_ops(rng, work: Path, digests: dict, root: Path) -> list:
    ops = []
    for i, (d, s) in enumerate(RECOVERY_GRID):
        charges = 3 + i % 6
        locs, strengths = seeded_field(rng, d, charges)
        field_path = _write(
            work / f"field_{i:02d}.json", _field_text(d, locs, strengths), digests, root
        )
        inputs = [field_path]
        lipschitz = s > (3 * d - 2) / 4.0
        if lipschitz:
            zeta = sphere_points(rng, d, RECOVERY_PAIRS)
            step = sphere_points(rng, d, RECOVERY_PAIRS) * rng.uniform(
                0.01, 0.3, RECOVERY_PAIRS
            )[:, None]
            eta = zeta + step
            eta /= np.linalg.norm(eta, axis=1)[:, None]
            text = json.dumps(
                [[[float(x) for x in a], [float(x) for x in b]] for a, b in zip(zeta, eta)]
            ) + "\n"
            inputs.append(_write(work / f"pairs_{i:02d}.json", text, digests, root))
        ops.append(
            Op(i, "recovery", f"recovery d={d} s={s:g}", inputs=inputs,
               params={"d": d, "s": s, "r": R, "lipschitz": lipschitz})
        )
    return ops


_OPS_OF = {
    "identity": _identity_ops,
    "reduction": _reduction_ops,
    "partition": _partition_ops,
    "recovery": _recovery_ops,
}


def generate(workload: str, seed: int, workdir) -> tuple[list, dict]:
    """Write the inputs of one workload cycle; return (ops, {file: sha256}).

    File paths in the digest map are relative to ``workdir``, so
    two directories generated from one seed give identical maps.
    """
    if workload not in _OPS_OF:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir = Path(workdir)
    work = workdir / workload
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    digests: dict = {}
    ops = _OPS_OF[workload](rng, work, digests, workdir)
    return ops, digests
