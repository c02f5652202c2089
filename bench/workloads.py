"""Seeded inputs and op schedules for the benchmark workloads.

Every code file and every op argument is a pure function of the workload
name and the seed.  Fixture codes (chains, honeycombs, the worst-case
sequence, Shor and Bacon-Shor codes) are built once and then relabelled per
op by a seeded qubit permutation and a per-qubit permutation of X, Y and Z.
Such a relabelling is a local Clifford up to phase: it preserves every
commutation relation, so each op keeps the algebraic properties of its
fixture (masking pattern, distances, initialization depth) while its input
bits differ from seed to seed.  Random codes are drawn rank by rank and are
never filtered by whether ``dyncode`` handles them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from dyncode.engine import DynamicalCode
from dyncode.floquet import build_1d_chain, build_worst_case_sequence
from dyncode.library import bacon_shor, honeycomb, save_code, shor_code
from dyncode.pauli import PauliOperator

from checks import Span, anticommute

WORKLOADS = ("classify-floquet", "distance-errors")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``dyncode <command> <file> <args...>``.

    ``family`` groups ops built from the same fixture; ``expect`` holds
    values known by construction that the output checks compare against.
    """

    index: int
    command: str
    family: str
    file: str
    args: tuple[str, ...] = ()
    isg_round: int = 0
    expect: dict = field(default_factory=dict)

    def argv(self, directory: Path) -> list[str]:
        return [self.command, str(directory / self.file), *self.args]


def relabel(code: DynamicalCode, rng: random.Random) -> DynamicalCode:
    """Seeded qubit permutation plus per-qubit X/Y/Z permutation."""
    n = code.n
    perm = list(range(n))
    rng.shuffle(perm)
    frames = [rng.sample((1, 2, 3), 3) for _ in range(n)]

    def move(op: PauliOperator) -> PauliOperator:
        x = z = 0
        support = op.x_mask | op.z_mask
        while support:
            q = (support & -support).bit_length() - 1
            support &= support - 1
            kind = frames[q][((op.x_mask >> q) & 1) + 2 * ((op.z_mask >> q) & 1) - 1]
            x |= (kind & 1) << perm[q]
            z |= (kind >> 1) << perm[q]
        return PauliOperator(n, x, z)

    return DynamicalCode.make(
        n, [move(op) for op in code.s0],
        [[move(op) for op in rnd] for rnd in code.rounds],
        labels=code.labels,
    )


def _local_pauli(rng: random.Random, n: int, reach: int, weight: int) -> tuple[int, int]:
    start = rng.randrange(n)
    x = z = 0
    for q in rng.sample([(start + i) % n for i in range(reach)], weight):
        kind = rng.randint(1, 3)
        x |= (kind & 1) << q
        z |= (kind >> 1) << q
    return x, z


def random_local_code(rng: random.Random, n: int, rounds: int) -> DynamicalCode:
    """Random ring-local code with |s0| = n/2 and the given round count.

    Generators of weight 2-3 within 4 neighbouring qubits are accepted
    while they commute with the accepted ones and raise the rank; each
    round takes weight-2 nearest-neighbour checks that commute within the
    round.  Most initial generators end up permanently masked.
    """
    span = Span(n)
    s0: list[tuple[int, int]] = []
    while len(s0) < n // 2:
        op = _local_pauli(rng, n, 4, rng.randint(2, 3))
        if any(anticommute(op, g) for g in s0):
            continue
        if span.add(op):
            s0.append(op)
    schedule = []
    for _ in range(rounds):
        rnd: list[tuple[int, int]] = []
        for _ in range(n // 4):
            op = _local_pauli(rng, n, 2, 2)
            if op not in rnd and not any(anticommute(op, m) for m in rnd):
                rnd.append(op)
        schedule.append(rnd)
    return DynamicalCode.make(
        n, [PauliOperator(n, *op) for op in s0],
        [[PauliOperator(n, *op) for op in rnd] for rnd in schedule],
        labels={"name": "random-local", "n": n},
    )


def generalized_shor(blocks: int, size: int) -> DynamicalCode:
    """[[blocks*size, 1, min(blocks, size)]] Shor-type code, no schedule."""
    n = blocks * size
    gens = []
    for b in range(blocks):
        for i in range(size - 1):
            q = b * size + i
            gens.append(PauliOperator(n, 0, (1 << q) | (1 << (q + 1))))
    block_mask = (1 << size) - 1
    for b in range(blocks - 1):
        gens.append(PauliOperator(n, (block_mask << (b * size)) | (block_mask << ((b + 1) * size)), 0))
    return DynamicalCode.make(n, gens, [], labels={"name": "shor-type", "blocks": blocks, "size": size})


# (blocks, size) with n = blocks*size in 10..18 and distance 2..4.
_SHOR_SHAPES = ((2, 5), (5, 2), (3, 4), (4, 3), (2, 7), (3, 5), (5, 3), (4, 4), (3, 6), (6, 3))


def random_shor_type(
    rng: random.Random, shape: tuple[int, int], masked: bool
) -> tuple[DynamicalCode, int]:
    """Seeded Shor-type code with a random generator basis and schedule.

    The generators are mixed by a random unitriangular transform, so the
    group (and its distance min(blocks, size)) is unchanged.  The one-round
    schedule measures them in random order.  With ``masked`` one weight-2
    Z check, drawn by the seed, is left out of the mixing and of the
    schedule, so its syndrome stays temporarily masked.  Withholding one
    of the long X checks instead can push the ``--t-destab exhaustive``
    search for the unmasked distance to weight 6 or 7 (about 4 s per op on
    the 2x7 and 3x6 shapes, against 0.3 s at most otherwise), which made
    the throughput of a run depend on the seed.
    """
    blocks, size = shape
    base = generalized_shor(blocks, size)
    gens = list(base.s0)
    # The first blocks * (size - 1) generators are the Z checks.
    withheld = [gens.pop(rng.randrange(blocks * (size - 1)))] if masked else []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if rng.random() < 0.3:
                g, h = gens[i], gens[j]
                gens[i] = PauliOperator(g.n, g.x_mask ^ h.x_mask, g.z_mask ^ h.z_mask)
    measured = list(gens)
    rng.shuffle(measured)
    code = DynamicalCode.make(base.n, gens + withheld, [measured], labels=base.labels)
    return relabel(code, rng), min(blocks, size)


def _interleave(families: list[list[dict]]):
    """Merge op lists so that every prefix holds each family in proportion.

    Each op's ``code`` is a zero-argument builder, called only as the op
    is yielded, so that one generated code is in memory at a time.  The
    merged order starts with the first op of the first family, which
    serves as the warm-up op of every set-up.
    """
    keyed = sorted(
        ((i / len(ops), f, op) for f, ops in enumerate(families) for i, op in enumerate(ops)),
        key=lambda item: item[:2],
    )
    for _, _, op in keyed:
        yield {**op, "code": op["code"]()}


def _sparse(rng: random.Random, n: int, weight: int) -> str:
    qubits = sorted(rng.sample(range(1, n + 1), weight))
    return " ".join(f"{rng.choice('XYZ')}{q}" for q in qubits)


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` values, one from the middle fifth of each equal slice of
    [lo, hi), in seeded order.

    Narrow strata keep the spread of sizes (and so of op costs) nearly the
    same for every seed, which keeps the latency percentiles comparable
    across seeds while the inputs themselves change.
    """
    values = [lo + (hi - lo) * (i + 0.4 + 0.2 * rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _classify_families(rng: random.Random) -> list[list[dict]]:
    """Chains at paired sizes n and 2n, honeycomb(6,6), random local codes."""
    sizes = (48, 56)
    chains = {n: build_1d_chain(n) for n in sizes + tuple(2 * n for n in sizes)}
    hc66 = honeycomb(6, 6)
    # Per size, two --isg-round fractions, one near the middle of each half
    # of 20-80% of the rounds; the larger also gets a --window, so that
    # every seed has the same cost profile.
    fractions = {}
    for n in sizes:
        isg_fracs = sorted(_strata(rng, 2, 0.2, 0.8))
        fractions[n] = list(zip(isg_fracs, (None, rng.uniform(0.5, 1.0))))
        rng.shuffle(fractions[n])
    pairs, honey, local = [], [], []
    for i in range(2 * len(sizes)):
        n = sizes[i % len(sizes)]
        isg_frac, window_frac = fractions[n][i // len(sizes)]
        for size, family in ((n, "chain-n"), (2 * n, "chain-2n")):
            rounds = len(chains[size].rounds)
            isg = round(isg_frac * rounds)
            window = None if window_frac is None else max(1, round(window_frac * (rounds - isg)))
            pairs.append(dict(command="classify", family=family,
                              code=partial(relabel, chains[size], rng),
                              isg_round=isg, window=window))
    # Twelve honeycomb(6,6) ops, each --isg-round twice and no --window, so
    # that with the 2n chains they fill the top fifth of latencies and the
    # 90th percentile falls among them rather than at the gap below.
    for i in range(12):
        honey.append(dict(command="classify", family="honeycomb-6x6",
                          code=partial(relabel, hc66, rng), isg_round=i % len(hc66.rounds)))
    qubits, rounds = _strata(rng, 30, 32, 65), _strata(rng, 30, 40, 61)
    for i, (n, r) in enumerate(zip(qubits, rounds)):
        window = None if i % 2 else round(rng.uniform(0.5, 1.0) * int(r))
        local.append(dict(command="classify", family="random-local",
                          code=partial(random_local_code, rng, int(n), int(r)),
                          isg_round=0, window=window))
    return [honey, pairs, local]


def _floquet_families(rng: random.Random) -> list[list[dict]]:
    """Worst-case sequences (depth n-1), honeycomb(3,3), chains as one cycle."""
    worst = {n: build_worst_case_sequence(n) for n in range(12, 15)}
    chains = {n: build_1d_chain(n) for n in range(16, 19)}
    hc33 = honeycomb(3, 3)
    sizes_w, sizes_c = sorted(worst), sorted(chains)
    wc, honey, chain = [], [], []
    for i in range(9):
        n = sizes_w[i % len(sizes_w)]
        wc.append(dict(command="floquet", family="worst-case",
                       code=partial(relabel, worst[n], rng),
                       expect={"initialization_depth": n - 1}))
        honey.append(dict(command="floquet", family="honeycomb-3x3",
                          code=partial(relabel, hc33, rng)))
    for i in range(32):
        n = sizes_c[i % len(sizes_c)]
        chain.append(dict(command="floquet", family="chain-cycle",
                          code=partial(relabel, chains[n], rng)))
    for ops in (wc, chain):
        rng.shuffle(ops)
    return [honey, wc, chain]


def _classify_floquet(seed: int):
    """Half ``classify`` ops on long schedules, half ``floquet`` ops on
    periodic ones, interleaved."""
    rng = random.Random(f"classify-floquet/{seed}")
    return _interleave(_classify_families(rng) + _floquet_families(rng))


def _distance_errors(seed: int):
    """Alternating distance and simulate ops on small codes.

    The codes follow a fixed pattern in which about half are honeycomb(3,3),
    so that for every seed the median latency falls among its ``simulate``
    ops and the 90th percentile among its ``distance`` searches, not at the
    edge between families of different cost.  The simulate ops'
    ``--max-weight`` alternates between 1 and 2 in a fixed pattern too,
    since the round-0 decoding check costs far more at weight 2.
    """
    rng = random.Random(f"distance-errors/{seed}")
    hc33 = honeycomb(3, 3)
    shor = {"shor": shor_code(), "shor-masked": shor_code(mask_z1z2=True)}
    grids = [(r, c) for r in range(3, 6) for c in range(3, 6)]
    shapes = [s for s in _SHOR_SHAPES if s != (4, 4)]
    counts: dict[str, int] = {}
    for i in range(2 * len(_DISTANCE_PATTERN)):
        family = _DISTANCE_PATTERN[i % len(_DISTANCE_PATTERN)]
        seen = counts[family] = counts.get(family, 0) + 1
        if family == "honeycomb-3x3":
            code, d_isg = relabel(hc33, rng), 4
        elif family in shor:
            code, d_isg = relabel(shor[family], rng), 3
        elif family == "bacon-shor":
            code, d_isg = relabel(bacon_shor(*grids[seen % len(grids)]), rng), None
        else:
            shape = (4, 4) if family == "shor-type-d4" else shapes[seen % len(shapes)]
            code, d_isg = random_shor_type(rng, shape, masked=bool(seen % 2))
        policy = ("canonical", "exhaustive")[(i // len(_DISTANCE_PATTERN)) % 2]
        yield dict(command="distance", family=family, code=code,
                        args=("--t-destab", policy),
                   expect={} if d_isg is None else {"d_isg": d_isg})
        rounds = range(len(code.rounds) + 1)
        spec = ",".join(
            f"{r}:{_sparse(rng, code.n, rng.randint(1, 2))}"
            for r in sorted(rng.sample(rounds, min(2, len(rounds))))
        )
        yield dict(command="simulate", family=family, code=code,
                   args=("--errors", spec, "--seed", str(rng.randrange(1 << 30)),
                         "--max-weight", str(1 + i % 2)))


_DISTANCE_PATTERN = (
    "honeycomb-3x3", "shor-type-d4", "honeycomb-3x3", "bacon-shor", "honeycomb-3x3",
    "shor-type", "honeycomb-3x3", "shor", "honeycomb-3x3", "shor-type-d4",
    "honeycomb-3x3", "shor-type", "honeycomb-3x3", "bacon-shor", "honeycomb-3x3",
    "shor-masked", "honeycomb-3x3", "shor-type", "honeycomb-3x3", "shor-type-d4",
    "honeycomb-3x3", "bacon-shor", "honeycomb-3x3", "shor-type", "honeycomb-3x3",
)


_BUILDERS = {
    "classify-floquet": _classify_floquet,
    "distance-errors": _distance_errors,
}


def build_ops(workload: str, seed: int, directory: Path) -> list[Op]:
    """Generate the workload's inputs into ``directory``; return its ops.

    Each code is built and written before the next one is built, so set-up
    holds one generated code at a time besides the fixtures.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, spec in enumerate(_BUILDERS[workload](seed)):
        name = f"op{index:03d}.json"
        save_code(spec["code"], directory / name)
        args = list(spec.get("args", ()))
        isg, window = spec.get("isg_round", 0), spec.get("window")
        if isg:
            args += ["--isg-round", str(isg)]
        if window is not None:
            args += ["--window", str(window)]
        ops.append(Op(index, spec["command"], spec["family"], name, tuple(args),
                      isg, spec.get("expect", {})))
    return ops
