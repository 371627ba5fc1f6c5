"""Seeded inputs, operations and exact oracles of the benchmark workloads.

Every workload is a list of *rounds*; a round is a list of operations.  An
operation times exactly one call into the program (a ``cli.main`` call or a
``decompose_enhanced`` call) and then checks the answer exactly: against the
label its input was generated from, against hard-coded counts, or by a
round trip back to the generating label.  Inputs are made from the
workload seed alone before any timing starts, and input files are written
byte-deterministically.

The program is reached only through its module attributes at call time
(``pkg.cli.main``, ``pkg.decompose_enhanced``), so that a traced run sees
the wrappers installed on those bindings.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

#: ``enumerate-orbits`` totals of the cones, as (ell, n), run by
#: ``labels-translate``; the one-vertex cone also runs the ``ah`` format.
ONE_VERTEX_CONE = (1, 8)
CONE_COUNTS = {ONE_VERTEX_CONE: 185, (2, 4): 342, (3, 3): 796, (4, 2): 485}

#: Cones sampled by ``cyclic-shared``, as (ell, n).
CYCLIC_CONES = ((2, 4), (2, 5), (3, 3), (4, 2), (4, 3))

#: Jordan types per round of ``onevertex-cold``, by dimension; ``None``
#: takes every type of that dimension, a number takes that many types
#: spaced evenly over the sorted list.  Dimensions up to 8 take the
#: centralizer-invariant route of ``decompose_enhanced``, larger ones the
#: fingerprint route.  Five types of a round cost several times as much as
#: any other, so p80 over two rounds falls three inputs below the top of the
#: cheaper group, not on the edge between the two groups.
ONEVERTEX_TYPES = {4: None, 5: None, 6: None, 7: 2, 8: 3, 9: 3}

#: Distinct rounds of ``onevertex-cold``, each with its own disguised label
#: per Jordan type; a 30-second run completes four or five rounds.
ONEVERTEX_ROUNDS = 2

#: Disguised labels in the ``cyclic-shared`` stream.
CYCLIC_COUNT = 300

#: Rounds of ``labels-translate``, and labels of each cone round-tripped per
#: round.
TRANSLATE_ROUNDS = 3
PER_CONE = 4

#: One-vertex labels whose normal forms are translated back in every round
#: of ``labels-translate``: enough that the cheap calls are over half
#: of the inputs, so that the median call is a per-call CLI cost and not
#: the edge between cheap and costly calls.
AH_BATCH = 64

#: Non-unit rescaling factors for arrows and framing vectors.
_NUMERATORS = (2, 3, 5, -2, -3)
_DENOMINATORS = (3, 5, 7, 4)


@dataclass
class Op:
    """One timed call into the program plus its oracle.

    ``call`` runs the program and returns its raw result; only it is timed.
    ``check`` receives that result and returns True when it is exactly
    right.  ``before`` runs untimed ahead of the call.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    before: Callable[[], None] | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Sample:
    op: Op
    #: ``time.perf_counter()`` when the call started, and its duration.
    start: float
    seconds: float
    ok: bool
    error: str | None = None


def run_op(op: Op) -> Sample:
    """Run one operation; an exception or a failed oracle is a failed sample,
    never an abort."""
    if op.before is not None:
        op.before()
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # the loop must keep running; record and go on
        return Sample(op, start, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Exception as exc:
        return Sample(op, start, seconds, False, f"oracle: {type(exc).__name__}: {exc}")
    return Sample(op, start, seconds, ok, None if ok else "wrong answer")


@dataclass
class Plan:
    """The generated inputs of one workload run."""

    rounds: list[list[Op]]
    #: Called before each round; every workload empties the program's memo
    #: caches there so that a repeated round starts as cold as the first.
    before_round: Callable[[], None] | None = None
    files: list[Path] = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _factor(rng: random.Random) -> Fraction:
    while True:
        c = Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
        if abs(c) != 1:
            return c


def rescaled_json(rep_json: dict, rng: random.Random) -> dict:
    """Multiply every arrow and the framing vector by its own non-unit
    rational.  For a nilpotent representation this keeps the orbit label:
    each summand is a chain, and scaling its arrows is undone by a diagonal
    base change along the chain; scaling the framing vector by d is undone
    by d times the identity."""
    out = dict(rep_json)
    maps = []
    for rows in rep_json["maps"]:
        c = _factor(rng)
        maps.append([[_q(Fraction(x) * c) for x in row] for row in rows])
    out["maps"] = maps
    d = _factor(rng)
    out["framing_vector"] = [_q(Fraction(x) * d) for x in rep_json["framing_vector"]]
    return out


def disguised_rep_json(pkg, label, rng: random.Random) -> dict:
    """The label's canonical representative after a random base change and a
    rescale: the decomposer must recover the label from this alone."""
    rep = pkg.random_base_change(pkg.build_label_rep(label), rng)
    return rescaled_json(rep.to_json(), rng)


def dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _write(path: Path, text: str, files: list[Path]) -> Path:
    path.write_text(text, encoding="utf-8")
    files.append(path)
    return path


def cli_call(pkg, argv: list[str]):
    """Run ``nilquiver.cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def clear_program_caches(pkg) -> None:
    """Empty every ``functools`` cache bound in the program's modules, which
    is the state of a freshly started process."""
    for name, module in list(sys.modules.items()):
        if name != pkg.__name__ and not name.startswith(pkg.__name__ + "."):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def chain_type(label) -> tuple[int, ...]:
    """Jordan type of a one-vertex label: its hook lengths and chain lengths."""
    f = label.lam.frobenius()
    hooks = [leg + arm + 1 for leg, arm in zip(f.legs, f.arms)]
    return tuple(sorted(hooks + [p for comp in label.nu for p in comp.parts], reverse=True))


def _stratified(items: list, count: int, rng: random.Random) -> list:
    """``count`` items spaced evenly over ``items`` from a seeded offset."""
    u = rng.random()
    return [items[int((j + u) * len(items) / count)] for j in range(count)]


def by_chain_type(labels: list) -> list:
    """Labels sorted by chain lengths, which the decomposition and
    translation costs follow."""
    return sorted(labels, key=lambda lb: (chain_type(lb), lb.sort_key()))


def _spread(items: list, k: int | None) -> list:
    """``k`` items spaced evenly from the first to the last, or all of them."""
    if k is None or k >= len(items):
        return list(items)
    return [items[round(i * (len(items) - 1) / (k - 1))] for i in range(k)]


# ---------------------------------------------------------------------------
# onevertex-cold
# ---------------------------------------------------------------------------


def _decompose_check(label_json: dict):
    def check(result) -> bool:
        code, out = result
        if code != 0 or not out:
            return False
        return json.loads(out.splitlines()[0]) == label_json

    return check


def onevertex_types(pkg) -> dict[tuple[int, ...], list]:
    """The Jordan types run per round, each with its labels whose framed
    part is nonempty (so the framing vector is nonzero and the framed
    search always runs)."""
    chosen: dict[tuple[int, ...], list] = {}
    for dim, k in ONEVERTEX_TYPES.items():
        groups: dict[tuple[int, ...], list] = {}
        for label in pkg.enumerate_orbit_labels(dim, 1):
            if label.lam.size:
                groups.setdefault(chain_type(label), []).append(label)
        for jtype in _spread(sorted(groups), k):
            chosen[jtype] = groups[jtype]
    return chosen


def make_onevertex_cold(pkg, seed: int, workdir: Path) -> Plan:
    """``ONEVERTEX_ROUNDS`` distinct rounds, one disguised label per selected
    Jordan type in each."""
    rng = seeded_rng("onevertex-cold", seed)
    types = onevertex_types(pkg)
    plan = Plan([], before_round=lambda: clear_program_caches(pkg))
    for r in range(ONEVERTEX_ROUNDS):
        picked = [rng.choice(labels) for labels in types.values()]
        # Candidate labels, and so every cached fingerprint, are determined by
        # the chain multiset: distinct multisets make every call of a round cold.
        if len({chain_type(label) for label in picked}) != len(picked):
            raise RuntimeError("two inputs of a round share a chain multiset")
        ops = []
        for label in picked:
            jtype = chain_type(label)
            path = _write(
                workdir / f"onevertex-r{r}-{len(ops):02d}.json",
                dump(disguised_rep_json(pkg, label, rng)),
                plan.files,
            )
            argv = ["decompose", "--input", str(path)]
            ops.append(
                Op(
                    "decompose",
                    lambda argv=argv: cli_call(pkg, argv),
                    _decompose_check(label.to_json()),
                    info={"dim": sum(jtype), "type": jtype},
                )
            )
        rng.shuffle(ops)
        plan.rounds.append(ops)
    return plan


# ---------------------------------------------------------------------------
# cyclic-shared
# ---------------------------------------------------------------------------


def make_cyclic_shared(pkg, seed: int, workdir: Path) -> Plan:
    """A shuffled stream of disguised labels from several cones, decomposed
    in-process.  The program's caches persist along the stream and are
    emptied before each pass over it, so every round is the same sweep of a
    fresh session.  Each cone's labels are drawn evenly over the cone sorted
    by chain lengths, so every seed spans the same cost range.  The inputs
    are written to one JSON-lines file and read back from it."""
    rng = seeded_rng("cyclic-shared", seed)
    lines = []
    for cone in CYCLIC_CONES:
        labels = by_chain_type(pkg.enumerate_orbit_labels(cone[1], cone[0]))
        for label in _stratified(labels, CYCLIC_COUNT // len(CYCLIC_CONES), rng):
            lines.append(dump({"label": label.to_json(), "rep": disguised_rep_json(pkg, label, rng)}))
    rng.shuffle(lines)
    plan = Plan([], before_round=lambda: clear_program_caches(pkg))
    path = _write(workdir / "cyclic-inputs.jsonl", "".join(lines), plan.files)
    ops = []
    for line in path.read_text(encoding="utf-8").splitlines():
        item = json.loads(line)
        rep = pkg.QuiverRep.from_json(item["rep"])
        ops.append(
            Op(
                "decompose",
                lambda rep=rep: pkg.decompose_enhanced(rep).label().to_json(),
                lambda got, want=item["label"]: got == want,
                info={"ell": rep.ell},
            )
        )
    plan.rounds = [ops]
    return plan


# ---------------------------------------------------------------------------
# labels-translate
# ---------------------------------------------------------------------------


def _enumerate_check(total: int):
    def check(result) -> bool:
        code, out = result
        lines = out.splitlines()
        return (
            code == 0
            and lines[-1:] == [f"total: {total}"]
            and len(lines) == total + 1
            and all(line.endswith("[ok]") for line in lines[:-1])
        )

    return check


def _payload_check(pkg, fmt: str, label, save: Path):
    """Oracle of a label -> fmt call: the payload must be well formed (a
    johnson payload builds a StripedBipartition of the label's signature);
    it is saved as the input of the inverse call that follows."""
    ell = label.ell
    n = label.dimension_vector().main

    def check(result) -> bool:
        code, out = result
        if code != 0:
            return False
        payload = json.loads(out)
        if fmt == "johnson":
            striped = pkg.StripedBipartition.from_json(payload, ell)
            if striped.signature().main != n:
                return False
        else:
            mu, nu = pkg.Partition(payload["mu"]), pkg.Partition(payload["nu"])
            if mu.size + nu.size != n[0]:
                return False
        save.write_text(dump(payload), encoding="utf-8")
        return True

    return check


def _roundtrip_check(label_json: dict):
    def check(result) -> bool:
        code, out = result
        return code == 0 and json.loads(out) == label_json

    return check


def _unlinker(path: Path):
    return lambda: path.unlink(missing_ok=True)


def make_labels_translate(pkg, seed: int, workdir: Path) -> Plan:
    """Each round enumerates the four cones and round-trips ``PER_CONE``
    labels of each.  The fibre searches behind ``label -> johnson`` and
    ``label -> ah`` cost more the later the answer sits in the search
    order, which follows the label's chain lengths; labels are therefore
    drawn evenly over each cone sorted by chain lengths, and dealt out to
    the rounds in turn, so every round spans the cost range."""
    rng = seeded_rng("labels-translate", seed)
    picks = {}
    for ell, n in CONE_COUNTS:
        labels = by_chain_type(pkg.enumerate_orbit_labels(n, ell))
        picks[(ell, n)] = _stratified(labels, TRANSLATE_ROUNDS * PER_CONE, rng)
        if (ell, n) == ONE_VERTEX_CONE:
            batch_labels = _stratified(labels, AH_BATCH, rng)
    plan = Plan([], before_round=lambda: clear_program_caches(pkg))
    batch = []
    for j, label in enumerate(batch_labels):
        mu, nu = pkg.label_to_bipartition(label.lam, label.nu[0])
        path = _write(workdir / f"labels-ah-{j}.json", dump({"mu": list(mu.parts), "nu": list(nu.parts)}),
                      plan.files)
        argv = ["translate", "--from", "ah", "--to", "label", "--input", str(path)]
        batch.append(Op("ah->label", lambda argv=argv: cli_call(pkg, argv), _roundtrip_check(label.to_json()),
                        info={"cone": ONE_VERTEX_CONE}))
    for r in range(TRANSLATE_ROUNDS):
        ops = []
        for (ell, n), total in CONE_COUNTS.items():
            argv = ["enumerate-orbits", "--n", str(n), "--ell", str(ell)]
            ops.append(
                Op("enumerate-orbits", lambda argv=argv: cli_call(pkg, argv), _enumerate_check(total),
                   info={"cone": (ell, n)})
            )
        for (ell, n), labels in picks.items():
            for i, label in enumerate(labels[r::TRANSLATE_ROUNDS]):
                stem = workdir / f"labels-r{r}-{ell}-{n}-{i}"
                source = _write(Path(f"{stem}.label.json"), dump(label.to_json()), plan.files)
                formats = ["johnson", "ah"] if ell == 1 else ["johnson"]
                for fmt in formats:
                    payload = Path(f"{stem}.{fmt}.json")
                    plan.files.append(payload)
                    forward = ["translate", "--from", "label", "--to", fmt, "--input", str(source)]
                    back = ["translate", "--from", fmt, "--to", "label", "--input", str(payload)]
                    if fmt == "johnson":
                        back += ["--ell", str(ell)]
                    ops.append(
                        Op(f"label->{fmt}", lambda argv=forward: cli_call(pkg, argv),
                           _payload_check(pkg, fmt, label, payload), before=_unlinker(payload),
                           info={"cone": (ell, n)})
                    )
                    ops.append(
                        Op(f"{fmt}->label", lambda argv=back: cli_call(pkg, argv),
                           _roundtrip_check(label.to_json()), info={"cone": (ell, n)})
                    )
        plan.rounds.append(ops + batch)
    return plan


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[..., Plan]
    #: The latency_tail_ms percentile: the highest of 80, 85, 90, 95, 98
    #: and 99 with at least ten distinct inputs beyond it.  Rounds repeat
    #: and latencies are per distinct input: onevertex-cold has 2 rounds of
    #: 31 inputs, cyclic-shared one stream of 300, labels-translate 3 rounds
    #: of 44 inputs plus a batch of 64.
    tail_percentile: float
    #: Rounds replayed by a traced run, untraced and then traced.
    trace_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("onevertex-cold", make_onevertex_cold, 80.0, 1),
        Workload("cyclic-shared", make_cyclic_shared, 95.0, 1),
        Workload("labels-translate", make_labels_translate, 90.0, 2),
    )
}
