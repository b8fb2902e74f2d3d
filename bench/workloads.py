"""Seeded workload generation.

Every workload is a fixed list of operations built from ``(workload, seed)``
alone; the program under test only ever sees the generated argv, config files
and chain specs. One pass runs the list once, in order, with a single client:
the next operation starts only after the previous one has finished.

The seed varies *what* is computed (flags, chains, link noise, simulation
seeds), not *how much*: sizes that set the cost of a pass (round counts,
trial counts, number of operations) come from fixed grids, so passes from
different seeds take comparable time and the end-to-end figures stay
comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("analytic-cli", "montecarlo-cli", "verify-cli", "library-sweep")

#: The five analytic commands printed in the README, verbatim.
README_COMMANDS = (
    ("rate-finite", "--sweep", "N"),
    ("rate-finite", "--sweep", "qx", "--rounds", "1e8"),
    ("rate-asymptotic",),
    ("noise", "--steps", "9", "--honest", "1,2,3,4"),
    ("bounds", "--rounds", "1e7", "--epsilon", "1e-36"),
)

#: Repeaters of the default chain, which the flag-only analytic commands use.
DEFAULT_REPEATERS = 5

#: simulate sizes: half-decade grid from 1e4 to 1e7 rounds. The largest runs
#: on a 6-link chain at exactly 1e7 rounds, so it sets a fixed peak memory;
#: the others scale their rounds by 7 / (links + 1), the sampler's cost per
#: round in units of one link draw, so every grid point costs the same
#: whatever the seeded chain length.
SIMULATE_EXPONENTS = (4.0, 4.5, 5.0, 5.5, 6.0, 6.5)
SIMULATE_TOP_ROUNDS = 10**7
SIMULATE_TOP_REPEATERS = 5

#: mc-verify sizes: corners and centre of rounds 2000..20000 x trials 200..2000.
MC_VERIFY_SIZES = ((2000, 200), (2000, 2000), (6325, 632), (20000, 200), (20000, 2000))

#: library-sweep sizes per pass.
LIBRARY_CHAINS = 80
LIBRARY_TRIPLES_PER_CHAIN = 25
LIBRARY_THRESHOLDS = 200


@dataclass(frozen=True)
class CliOp:
    """One command process: ``python -m chainrate.cli *argv``.

    ``kind`` selects the output check; ``expect_exit`` is the exit code the
    check requires (``None`` when either 0 or 2 is a legitimate outcome).
    """

    argv: tuple[str, ...]
    kind: str
    expect_exit: int | None = 0


@dataclass(frozen=True)
class LibraryEval:
    """``noise_report(chain)`` followed by ``finite_rate`` at one (n, m, epsilon)."""

    chain: dict
    n: int
    m: int
    epsilon: float


@dataclass(frozen=True)
class LibraryThreshold:
    """``noise_tolerance`` of ``asymptotic_rate(qx, p*(qx))`` for an identical-link chain."""

    repeaters: int
    honest_left: int
    honest_right: int


@dataclass
class Workload:
    name: str
    seed: int
    ops: list = field(default_factory=list)
    #: Files the operations read, as {relative path: text}; written before timing.
    files: dict[str, str] = field(default_factory=dict)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _honest(rng: random.Random, repeaters: int) -> str:
    counts = sorted(rng.sample(range(repeaters + 1), rng.randint(1, 3)))
    return ",".join(str(c) for c in counts)


def _epsilon(rng: random.Random) -> str:
    return format(10 ** rng.uniform(-40, -10), ".6g")


def _m_fraction(rng: random.Random) -> str:
    return format(rng.uniform(0.02, 0.2), ".4g")


def _analytic_variants(rng: random.Random) -> list[tuple[str, ...]]:
    """Two seeded flag-only variants of each README analytic command."""
    variants = []
    for _ in range(2):
        variants.append((
            "rate-finite", "--sweep", "N",
            "--q", format(rng.uniform(0.005, 0.06), ".6g"),
            "--honest", _honest(rng, DEFAULT_REPEATERS),
            "--epsilon", _epsilon(rng),
            "--m-fraction", _m_fraction(rng),
            "--n-min", str(round(10 ** rng.uniform(4, 6))),
            "--n-max", str(round(10 ** rng.uniform(9, 12))),
        ))
        variants.append((
            "rate-finite", "--sweep", "qx",
            "--rounds", str(round(10 ** rng.uniform(6, 10))),
            "--qx-max", format(rng.uniform(0.05, 0.2), ".4g"),
            "--steps", str(rng.randint(20, 151)),
            "--honest", _honest(rng, DEFAULT_REPEATERS),
            "--epsilon", _epsilon(rng),
            "--m-fraction", _m_fraction(rng),
        ))
        variants.append((
            "rate-asymptotic",
            "--qx-max", format(rng.uniform(0.1, 0.3), ".4g"),
            "--steps", str(rng.randint(20, 126)),
            "--honest", _honest(rng, DEFAULT_REPEATERS),
        ))
        variants.append((
            "noise",
            "--steps", str(rng.randint(5, 61)),
            "--honest", _honest(rng, DEFAULT_REPEATERS),
        ))
        variants.append((
            "bounds",
            "--rounds", str(round(10 ** rng.uniform(4, 12))),
            "--epsilon", _epsilon(rng),
            "--m-fraction", _m_fraction(rng),
        ))
    return variants


def _dirichlet(rng: random.Random, alphas: tuple[float, ...]) -> list[float]:
    draws = [rng.gammavariate(a, 1.0) for a in alphas]
    total = sum(draws)
    return [d / total for d in draws]


def _chain_config(rng: random.Random, repeaters: int) -> dict:
    """A config-file chain: mixed depolarizing and explicit links, seeded honest split."""
    links = []
    for _ in range(repeaters + 1):
        if rng.random() < 0.5:
            links.append({"type": "depolarizing", "q": round(rng.uniform(0.005, 0.08), 6)})
        else:
            links.append({"type": "explicit", "probs": _dirichlet(rng, (40.0, 1.0, 1.0, 1.0))})
    honest_total = rng.randint(0, repeaters)
    honest_left = rng.randint(0, honest_total)
    return {
        "repeaters": repeaters,
        "honest_left": honest_left,
        "honest_right": honest_total - honest_left,
        "links": links,
    }


def _analytic(wl: Workload, rng: random.Random) -> None:
    for argv in README_COMMANDS + tuple(_analytic_variants(rng)):
        wl.ops.append(CliOp(argv, "analytic"))


def _montecarlo(wl: Workload, rng: random.Random) -> None:
    directory = f".bench_work/montecarlo-cli-{wl.seed}"

    def config_file(config: dict) -> str:
        path = f"{directory}/chain-{len(wl.files)}.json"
        wl.files[path] = json.dumps(config, indent=1) + "\n"
        return path

    simulate = []
    for exponent in SIMULATE_EXPONENTS:
        config = _chain_config(rng, rng.randint(1, 8))
        links = config["repeaters"] + 1
        rounds = round(10**exponent * 7 / (links + 1))
        simulate.append((config, rounds))
    simulate.append((_chain_config(rng, SIMULATE_TOP_REPEATERS), SIMULATE_TOP_ROUNDS))
    for config, rounds in simulate:
        argv = ("simulate", "--config", config_file(config), "--rounds", str(rounds),
                "--seed", str(rng.randrange(2**31)))
        wl.ops.append(CliOp(argv, "simulate"))
    # Repeat one (config, seed) within the pass: its JSON must reproduce exactly.
    wl.ops.append(wl.ops[2])
    for rounds, trials in MC_VERIFY_SIZES:
        config = _chain_config(rng, rng.randint(1, 8))
        argv = ("mc-verify", "--config", config_file(config), "--rounds", str(rounds),
                "--trials", str(trials), "--seed", str(rng.randrange(2**31)))
        wl.ops.append(CliOp(argv, "mc-verify", expect_exit=None))


def _verify(wl: Workload, rng: random.Random) -> None:
    # Default seed always: the suite's statistical gates were set on it, and
    # re-seeding them would be seed-shopping. The workload seed picks the order.
    ops = [CliOp(("verify",), "verify"), CliOp(("verify", "--inject-fault", "convolve"), "verify-fault", 2)]
    rng.shuffle(ops)
    wl.ops.extend(ops)


def _library_shapes(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    """``count`` (repeaters, honest_left, honest_right) triples in seeded order.

    Repeaters cycle through 1-10 and the honest total through fixed fractions
    of the chain, so the mix of chain sizes, which sets the cost of the
    analytic calls, is the same for every seed; the seed picks the split and
    the order.
    """
    shapes = []
    for i in range(count):
        repeaters = 1 + i % 10
        honest_total = round(repeaters * (i // 10 % 4) / 3)
        honest_left = rng.randint(0, honest_total)
        shapes.append((repeaters, honest_left, honest_total - honest_left))
    rng.shuffle(shapes)
    return shapes


def _library(wl: Workload, rng: random.Random) -> None:
    for repeaters, honest_left, honest_right in _library_shapes(rng, LIBRARY_CHAINS):
        chain = {
            "repeaters": repeaters,
            "honest_left": honest_left,
            "honest_right": honest_right,
            "links": [_dirichlet(rng, (40.0, 1.0, 1.0, 1.0)) for _ in range(repeaters + 1)],
        }
        for _ in range(LIBRARY_TRIPLES_PER_CHAIN):
            n = round(10 ** rng.uniform(5, 12))
            m = max(1, round(rng.uniform(0.02, 0.2) * n))
            wl.ops.append(LibraryEval(chain, n, m, 10 ** rng.uniform(-40, -10)))
    for shape in _library_shapes(rng, LIBRARY_THRESHOLDS):
        wl.ops.append(LibraryThreshold(*shape))


_GENERATORS = {
    "analytic-cli": _analytic,
    "montecarlo-cli": _montecarlo,
    "verify-cli": _verify,
    "library-sweep": _library,
}


def build(name: str, seed: int) -> Workload:
    """The fixed operation list of one pass of workload ``name`` at ``seed``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    wl = Workload(name, seed)
    _GENERATORS[name](wl, _rng(name, seed))
    return wl


def simulate_rounds_total(ops) -> int:
    return sum(int(op.argv[op.argv.index("--rounds") + 1]) for op in ops if op.kind == "simulate")


def mc_trials_total(ops) -> int:
    return sum(int(op.argv[op.argv.index("--trials") + 1]) for op in ops if op.kind == "mc-verify")

