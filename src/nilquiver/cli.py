"""Command-line surface: enumeration, translation, decomposition, rendering,
representation-type queries and a self-check suite.

Exit codes: 0 on success, 2 on invalid input, 1 on an internal assertion
failure or a failed self-check.  All output is byte-deterministic for a
fixed input.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys

from .circle_diagrams import (
    diagram_from_json,
    frobenius_diagram_of_partition,
    from_dot,
    to_ascii,
    to_dot,
)
from .decomposer import decompose_enhanced
from .orbit_maps import (
    StripedBipartition,
    bipartition_to_label,
    label_to_bipartition,
    striped_from_label,
    striped_label,
)
from .partitions import (
    Multipartition,
    Partition,
    enumerate_partitions,
    json_ints,
)
from .rep_builder import QuiverRep, build_striped
from .residues import (
    DimensionVector,
    OrbitLabel,
    column_residue,
    cone_count,
    delta,
    ell_quotient_core,
    enumerate_orbit_labels,
    from_core_quotient,
    orbit_label_groups,
    runs_vector,
)
from .rep_type import classify, tits_form, wildness_witness


def _read_payload(path: str, parse=json.loads):
    """Parse the file at ``path`` (``-`` for stdin); an unreadable file,
    malformed JSON or JSON nested past the decoder's recursion limit raises
    ValueError."""
    try:
        if path == "-":
            return parse(sys.stdin.read())
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# enumerate-orbits
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    if args.n < 0 or args.ell < 1 or (args.x is not None and args.x < 1):
        raise ValueError("need n >= 0, ell >= 1 and x >= 1")
    ell = args.ell
    _check_ell(ell, "enumerate-orbits")
    target = delta(ell, args.n).main
    groups = orbit_label_groups(target)
    if args.x is not None:
        groups = [group for group in groups if group[0].weight(ell) <= args.x]
    ok = f"dims={DimensionVector(1, target)}  [ok]\n"
    # the text, chains and chain vector of each nonempty component are
    # built once per (vertex, parts) and joined once per multipartition of
    # a fill list; an empty component adds its text alone, so a row costs
    # its nonempty components, not ell
    components: dict[tuple[int, tuple[int, ...]], tuple[str, str, tuple[int, ...]]] = {}
    empty = str(Partition())

    def columns(nu: Multipartition) -> tuple[str, str, tuple[int, ...]]:
        texts, plain, vector = [], [], (0,) * ell
        for i, comp in enumerate(nu):
            if not comp:
                texts.append(empty)
                continue
            key = (i, comp.parts)
            if key not in components:
                components[key] = (
                    str(comp),
                    ",".join(f"({i},{length})" for length in comp),
                    runs_vector(((i, length) for length in comp), ell),
                )
            text, chains, summand = components[key]
            texts.append(text)
            plain.append(chains)
            vector = tuple(map(operator.add, vector, summand))
        return ",".join(texts), ",".join(plain) or "-", vector

    # each fill list's columns, built once per deficit: partitions with one
    # deficit share its fill list
    fill_columns: dict[tuple[int, ...], list] = {}
    rows = []
    bad = 0
    # each partition's text, marked diagram and column residue, once per group
    for lam, deficit, fills in groups:
        frob = frobenius_diagram_of_partition(lam, ell)
        marked = ",".join(f"(len={p},mark={o})" for p, o in frob.circles) or "-"
        cres = column_residue(lam, ell).main
        head = f"label=({lam};("
        middle = f"))  marked=[{marked}]  plain=["
        if deficit not in fill_columns:
            fill_columns[deficit] = [columns(nu) for nu in fills]
        for text, plain, vector in fill_columns[deficit]:
            main = tuple(map(operator.add, cres, vector))
            if main == target:
                tail = ok
            else:
                bad += 1
                tail = f"dims={DimensionVector(1, main)}  [BAD]\n"
            rows.append(f"{head}{text}{middle}{plain}]  {tail}")
    total = len(rows)
    rows.append(f"total: {total}\n")
    sys.stdout.write("".join(rows))
    if bad:
        raise AssertionError(f"{bad} of {total} rows fail the dimension check")
    return 0


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def _label_from_payload(fmt: str, payload: dict, ell: int | None) -> OrbitLabel:
    """Parse a label in the given format; any malformed shape raises ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"{fmt} input must be a JSON object, not {type(payload).__name__}")
    if fmt == "johnson" and ell is None:
        raise ValueError("--ell is required for striped input")
    try:
        if fmt == "ah":
            mu = Partition(json_ints(payload["mu"], "mu"))
            nu = Partition(json_ints(payload["nu"], "nu"))
        elif fmt == "johnson":
            striped = StripedBipartition.from_json(payload, ell)
        elif fmt == "label":
            return OrbitLabel.from_json(payload)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except KeyError as exc:
        raise ValueError(f"{fmt} input lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed {fmt} input: {exc}") from exc
    # the label has at most (largest marking) parts in lambda and ell in nu
    ell, marking = (1, mu[0]) if fmt == "ah" else (ell, max(striped.nu, default=0))
    if max(ell, marking) > RENDER_MAX_BOXES:
        raise ValueError(
            f"the {fmt} input has ell {ell} and largest marking {marking}; "
            f"translate takes at most {RENDER_MAX_BOXES} of each"
        )
    if fmt == "ah":
        eta, zeta = bipartition_to_label(mu, nu)
        return OrbitLabel(eta, Multipartition((zeta,)))
    return striped_label(striped)


def _label_to_payload(fmt: str, label: OrbitLabel) -> dict:
    if fmt == "ah":
        if label.ell != 1:
            raise ValueError("the marked-Jordan bipartition form needs ell = 1")
        mu, nu = label_to_bipartition(label.lam, label.nu[0])
        return {"mu": list(mu.parts), "nu": list(nu.parts)}
    if fmt == "johnson":
        return striped_from_label(label).to_json()
    if fmt == "label":
        return label.to_json()
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_translate(args) -> int:
    payload = _read_payload(args.input)
    label = _label_from_payload(args.source, payload, args.ell)
    print(json.dumps(_label_to_payload(args.target, label), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    rep = QuiverRep.from_json(_read_payload(args.input))
    result = decompose_enhanced(rep)
    print(json.dumps(result.to_json(), sort_keys=True))
    if result.framed_part is not None and result.framed_part:
        print(f"framed summand: partition {result.framed_part}")
    elif result.framed_part is not None:
        print("framed summand: none (zero framing vector)")
    for i, comp in enumerate(result.plain_parts):
        for length in comp:
            print(f"chain summand: start {i}, length {length}")
    return 0


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _young_cells(lam: Partition, ell: int | None) -> list[list[str]]:
    k = lam.diagonal_length()
    cells = []
    for i, part in enumerate(lam.parts, start=1):
        row = []
        for j in range(1, part + 1):
            if i == j and i <= k:
                row.append(f"s{i}")
            elif ell is not None:
                row.append(str((j - i) % ell))
            else:
                row.append("")
        cells.append(row)
    return cells


def _render_partition(lam: Partition, ell: int | None, fmt: str) -> str:
    if fmt == "ascii":
        if ell is None:
            return "\n".join("[]" * part for part in lam.parts)
        width = max(2, max((len(c) for row in _young_cells(lam, ell) for c in row), default=2))
        return "\n".join(
            "".join(f"[{c:>{width}}]" for c in row) for row in _young_cells(lam, ell)
        )
    if fmt == "latex-ytableau":
        rows = []
        for row in _young_cells(lam, ell):
            rows.append(" & ".join(c if c else "{}" for c in row) + r" \\")
        return "\\begin{ytableau}\n" + "\n".join(rows) + "\n\\end{ytableau}"
    if fmt == "dot":
        if ell is None:
            raise ValueError("dot output of a partition needs --ell (marked diagram)")
        return to_dot(frobenius_diagram_of_partition(lam, ell))
    raise ValueError(f"unknown render format {fmt!r}")


def _render_diagram(diagram, fmt: str) -> str:
    if fmt == "ascii":
        return to_ascii(diagram)
    if fmt == "dot":
        return to_dot(diagram)
    if fmt == "latex-ytableau":
        rows = []
        for start, length, mark in diagram.chains():
            cells = []
            for k in range(length - 1, -1, -1):
                label = str((start + k) % diagram.ell)
                if mark is not None and k == mark:
                    label = f"*(gray) {label}"
                cells.append(label)
            rows.append(" & ".join(cells) + r" \\")
        return "\\begin{ytableau}\n" + "\n".join(rows) + "\n\\end{ytableau}"
    raise ValueError(f"unknown render format {fmt!r}")


def _parse_diagram(text: str):
    return from_dot(text) if text.lstrip().startswith("digraph") else diagram_from_json(json.loads(text))


#: The most boxes ``render`` draws, of a partition or of a diagram's
#: circles: every format writes a few bytes per box, so a short argument
#: such as "[300000000]" or a circle of that length must not buy hundreds
#: of megabytes of output.  DOT also writes one cluster per block, so there
#: the blocks count toward the bound too.  ``translate`` bounds the ell and
#: the largest marking of an ``ah`` or ``johnson`` input by it, since the
#: label it prints has up to that many parts and components, and
#: ``enumerate-orbits`` and ``selfcheck`` bound the ell of a cone by it,
#: since each of its labels has one component per vertex.
RENDER_MAX_BOXES = 100_000


def _check_ell(ell: int, command: str) -> None:
    """Refuse a cone's ell past :data:`RENDER_MAX_BOXES` before any vector
    of ell entries is built."""
    if ell > RENDER_MAX_BOXES:
        raise ValueError(f"the cone has ell {ell}; {command} takes at most {RENDER_MAX_BOXES}")


def _check_render_size(what: str, boxes: int, ell: int | None, fmt: str) -> None:
    if boxes > RENDER_MAX_BOXES:
        raise ValueError(f"the {what} has {boxes} boxes; render draws at most {RENDER_MAX_BOXES}")
    if fmt == "dot" and ell is not None and boxes + ell > RENDER_MAX_BOXES:
        raise ValueError(
            f"the {what} has {boxes} boxes in {ell} blocks; "
            f"render --format dot draws at most {RENDER_MAX_BOXES} boxes and blocks"
        )


def _cmd_render(args) -> int:
    if (args.partition is None) == (args.diagram is None):
        raise ValueError("exactly one of --partition and --diagram is required")
    if args.ell is not None and args.ell < 1:
        raise ValueError("need ell >= 1")
    if args.partition is not None:
        lam = Partition.from_text(args.partition)
        _check_render_size("partition", lam.size, args.ell, args.format)
        print(_render_partition(lam, args.ell, args.format))
        return 0
    # a parsed diagram holds its ell and one (start, length, mark) per
    # circle, whatever the lengths, so the bound is read off it before
    # anything is drawn
    diagram = _read_payload(args.diagram, _parse_diagram)
    boxes = sum(length for _, length, _ in diagram.chains())
    _check_render_size("diagram", boxes, diagram.ell, args.format)
    print(_render_diagram(diagram, args.format))
    return 0


# ---------------------------------------------------------------------------
# reptype
# ---------------------------------------------------------------------------


def _cmd_reptype(args) -> int:
    kind = classify(args.ell, args.x)
    print(f"(ell, x) = ({args.ell}, {args.x}): {kind.value}")
    witness = wildness_witness(args.ell, args.x)
    if witness is not None:
        window, main, framing = witness
        print(f"witness window: rows={window.rows}, framing rows={window.framing_rows}")
        print(f"main={main} framing={framing}")
        print(f"q = {tits_form(window, main, framing)}")
    return 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


#: The most orbit labels ``selfcheck`` takes on, counted before its first
#: line is printed.  Its decomposition oracle decomposes one representation
#: per label, whose cost grows with its dimension n*ell + 1: the slowest
#: cone admitted is (13, 1), 1,770 labels in 1.9 s on a 2-vCPU x86-64 host,
#: against 0.7 s for (2, 5), 1,846 labels.
SELFCHECK_MAX_LABELS = 2_000


def _cmd_selfcheck(args) -> int:
    n, ell = args.n, args.ell
    if n < 0 or ell < 1:
        raise ValueError("need n >= 0 and ell >= 1")
    _check_ell(ell, "selfcheck")
    labels = enumerate_orbit_labels(n, ell, max_count=SELFCHECK_MAX_LABELS)
    failures = 0

    def report(name: str, ok: bool, details: str = ""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        suffix = f" ({details})" if details else ""
        print(f"{status} {name}{suffix}")
        if not ok:
            failures += 1

    frobenius_ok = diagram_ok = core_ok = True
    count = 0
    for m in range(min(n * ell, 12) + 1):
        for lam in enumerate_partitions(m):
            count += 1
            if lam.frobenius().partition() != lam:
                frobenius_ok = False
            diagram = frobenius_diagram_of_partition(lam, ell)
            if diagram.partition() != lam or diagram.weight() != lam.weight(ell):
                diagram_ok = False
            if m <= 8 and from_core_quotient(*ell_quotient_core(lam, ell), ell) != lam:
                core_ok = False
    report("frobenius-roundtrip", frobenius_ok, f"{count} partitions")
    report("diagram-roundtrip", diagram_ok)
    report("core-quotient-roundtrip", core_ok)

    report("label-count", len(labels) == cone_count(n, ell), f"{len(labels)} labels")

    # striped_from_label certifies striped_label(s) == label, so each
    # label's striped representative must decompose back to it
    ok = all(
        decompose_enhanced(build_striped(striped_from_label(label))).label() == label
        for label in labels
    )
    report("decomposition-oracle", ok, f"{len(labels)} cases")

    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--x", type=int, default=None,
                   help="keep only labels whose partition weight is <= x")
    p.set_defaults(func=_cmd_enumerate)


def _translate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="source", choices=["ah", "johnson", "label"], required=True)
    p.add_argument("--to", dest="target", choices=["ah", "johnson", "label"], required=True)
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")
    p.add_argument("--ell", type=int, default=None, help="cycle length for striped input")
    p.set_defaults(func=_cmd_translate)


def _decompose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")
    p.set_defaults(func=_cmd_decompose)


def _render_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--partition", default=None, help='bracket form, e.g. "[6,4,4,2]"')
    p.add_argument("--diagram", default=None, help="diagram JSON or DOT file, or - for stdin")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--format", choices=["ascii", "dot", "latex-ytableau"], default="ascii")
    p.set_defaults(func=_cmd_render)


def _reptype_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("ell", type=int)
    p.add_argument("x", type=int)
    p.set_defaults(func=_cmd_reptype)


def _selfcheck_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_selfcheck)


#: Each command, in help order: its help line and the function that adds
#: its arguments to a parser.
COMMANDS = {
    "enumerate-orbits": ("list the orbit labels of a cone", _enumerate_arguments),
    "translate": ("translate between label formats", _translate_arguments),
    "decompose": ("decompose a representation JSON file", _decompose_arguments),
    "render": ("render partitions and circle diagrams", _render_arguments),
    "reptype": ("representation type of the (ell, x) algebra", _reptype_arguments),
    "selfcheck": ("run the invariant suites at desk scale", _selfcheck_arguments),
}


class _HelpFormatter(argparse.HelpFormatter):
    """Help, usage and error text wrapped at 78 columns, the width argparse
    picks when no terminal is attached, whatever ``COLUMNS`` or the terminal
    says: so the text is the same bytes everywhere, and no parser asks the
    terminal for its size."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=78):
        super().__init__(prog, indent_increment, max_help_position, width)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every command's subparser.

    :func:`parse_args` builds it only for a call that names no command
    first or leaves arguments over; the help, usage and error lines of
    those calls are this parser's.
    """
    parser = argparse.ArgumentParser(
        prog="nilquiver",
        description="Orbit labels and exact decompositions for nilpotent framed cyclic quivers.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line, formatter_class=_HelpFormatter))
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments of a call, as :func:`build_parser` parses them.

    A call that names a command first is parsed by that command's parser
    alone: ``ArgumentParser(prog="nilquiver <command>")`` with the command's
    arguments is the subparser the full parser would hand it to, so it
    prints the same help and the same errors.  The full parser is built
    only for a call that names no command first (no arguments, ``--help``,
    an unknown command, an option first) or that leaves arguments over,
    which it reports as unrecognized with its own usage line.
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"nilquiver {argv[0]}", formatter_class=_HelpFormatter)
        _, add_arguments = COMMANDS[argv[0]]
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # one parser for a call that names its command; all six only for a
    # call that names none first or leaves arguments over
    args = parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
