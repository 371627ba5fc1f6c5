import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from enumeration_oracle import enumerate_rows, orbit_labels

from nilquiver import (
    CircleDiagram,
    Multipartition,
    OrbitLabel,
    Partition,
    build_chain,
    build_framed,
    direct_sum,
    enumerate_orbit_labels,
    frobenius_diagram_of_partition,
    to_dot,
)
from nilquiver import cli
from nilquiver.cli import main
from nilquiver.residues import orbit_label_groups


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, stdin=None, timeout=None, module="nilquiver.cli"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", module, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return out.returncode, out.stdout, out.stderr


def test_enumerate_orbits_row_counts(capsys):
    assert main(["enumerate-orbits", "--n", "3", "--ell", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 10"
    assert len(lines) == 11
    assert all("[ok]" in line for line in lines[:-1])

    assert main(["enumerate-orbits", "--n", "0", "--ell", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 1"


def test_enumerate_orbits_weight_filter(capsys):
    assert main(["enumerate-orbits", "--n", "2", "--ell", "1", "--x", "1"]) == 0
    out = capsys.readouterr().out
    # weight <= 1 keeps only single-box-or-empty partitions at one vertex
    for line in out.strip().splitlines()[:-1]:
        lam = line.split("label=(")[1].split(";")[0]
        assert Partition.from_text(lam).weight(1) <= 1


def test_enumerate_orbits_is_deterministic(capsys):
    main(["enumerate-orbits", "--n", "2", "--ell", "2"])
    first = capsys.readouterr().out
    main(["enumerate-orbits", "--n", "2", "--ell", "2"])
    assert capsys.readouterr().out == first


def test_enumerate_orbits_matches_the_per_label_rendering(capsys):
    # the benchmark's cones, (1, 8), (2, 4), (3, 3) and (4, 2), are among them
    cones = [(1, 4, None), (2, 3, None), (3, 2, None), (4, 2, None), (2, 3, 1), (3, 2, 2)]
    cones += [(1, 8, None), (2, 4, None), (3, 3, None), (1, 8, 2), (2, 4, 1), (3, 3, 2), (4, 2, 1)]
    for ell, n, x in cones:
        argv = ["enumerate-orbits", "--n", str(n), "--ell", str(ell)]
        if x is not None:
            argv += ["--x", str(x)]
        assert main(argv) == 0
        assert capsys.readouterr().out == enumerate_rows(orbit_labels(n, ell), n, ell, x), (ell, n, x)


def test_enumerate_orbits_over_the_cap_exits_2():
    # over a million labels: the cap message, not a MemoryError traceback
    code, out, err = run_cli(["enumerate-orbits", "--n", "30", "--ell", "3"], timeout=120)
    assert (code, out) == (2, "")
    assert err == "error: enumeration exceeds the cap of 1000000\n"


def test_enumerate_orbits_of_many_vertices_exits_2_with_the_cap(capsys):
    # delta at 900 vertices has 2**901 - 2 labels, so the count bound
    # refuses it before any search: the cap message, not the recursion limit
    assert main(["enumerate-orbits", "--n", "1", "--ell", "900"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration exceeds the cap of 1000000\n"


def test_enumerate_orbits_too_deep_exits_2(capsys):
    # a cone of 2000 vertices, past any stack the fill search could nest
    # through: the count bound gives the cap message before any search
    assert main(["enumerate-orbits", "--n", "1", "--ell", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration exceeds the cap of 1000000\n"


def test_the_zero_cone_has_its_one_label_at_any_ell(capsys):
    # a zero remainder has one fill, found without nesting once per
    # vertex: 2000 vertices list ((); (empty, ..., empty)), and the cap
    # still holds
    ell = 2000
    label = OrbitLabel(Partition(), Multipartition.empty(ell))
    assert enumerate_orbit_labels(0, ell) == [label]
    with pytest.raises(ValueError, match="enumeration exceeds the cap of 0"):
        orbit_label_groups((0,) * ell, max_count=0)
    assert main(["enumerate-orbits", "--n", "0", "--ell", str(ell)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].endswith(" [ok]") and lines[1] == "total: 1"
    assert main(["selfcheck", "--n", "0", "--ell", str(ell)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_enumerate_orbits_out_of_memory_exits_2(monkeypatch, capsys):
    def exhausted(main):
        raise MemoryError

    monkeypatch.setattr(cli, "orbit_label_groups", exhausted)
    assert main(["enumerate-orbits", "--n", "50", "--ell", "50"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: input too large\n")


def test_enumerate_orbits_bad_row_exits_1(monkeypatch, capsys):
    stray = OrbitLabel(Partition([2]), Multipartition((Partition(),)))

    def with_stray(n, ell):
        return enumerate_orbit_labels(n, ell) + [stray]

    def groups_with_stray(main):
        # the stray group carries its partition's own deficit, 1 - 2, with a
        # fill list of the wrong residue, which no other group shares
        return orbit_label_groups(main) + [(stray.lam, (-1,), [stray.nu])]

    monkeypatch.setattr(cli, "orbit_label_groups", groups_with_stray)
    assert main(["enumerate-orbits", "--n", "1", "--ell", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == enumerate_rows(with_stray(1, 1), 1, 1)
    assert captured.out.splitlines()[2].endswith("[BAD]")
    assert captured.err.startswith("internal error: ")


def test_translate_roundtrips(tmp_path):
    payload = json.dumps({"mu": [2, 1], "nu": []})
    code, out, _ = run_cli(["translate", "--from", "ah", "--to", "label", "--input", "-"], payload)
    assert code == 0
    assert json.loads(out) == {"lambda": [1, 1], "nu": [[1]]}

    # fixed point of the one-vertex translation
    payload = json.dumps({"mu": [], "nu": [3]})
    code, out, _ = run_cli(["translate", "--from", "ah", "--to", "ah", "--input", "-"], payload)
    assert code == 0
    assert json.loads(out) == {"mu": [], "nu": [3]}

    # striped -> label -> striped
    striped = {"lambda": [2, 1], "epsilon": [0, 1], "nu": [2, 0]}
    code, out, _ = run_cli(
        ["translate", "--from", "johnson", "--to", "label", "--input", "-", "--ell", "2"],
        json.dumps(striped),
    )
    assert code == 0
    label = json.loads(out)
    code, out, _ = run_cli(
        ["translate", "--from", "label", "--to", "johnson", "--input", "-", "--ell", "2"],
        json.dumps(label),
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["translate", "--from", "johnson", "--to", "label", "--input", "-", "--ell", "2"],
        out,
    )
    assert code == 0 and json.loads(out2) == label


def test_translate_rejects_invalid_striped():
    bad = {"lambda": [2], "epsilon": [1], "nu": [2]}  # mark outside block 0
    code, _, err = run_cli(
        ["translate", "--from", "johnson", "--to", "label", "--input", "-", "--ell", "2"],
        json.dumps(bad),
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "bad, ell, message",
    [
        ({"lambda": [2], "epsilon": [1], "nu": [2]}, 2, "mark of row 1 does not sit in block 0"),
        ({"lambda": [3, 2], "epsilon": [0, 0], "nu": [3, 1]}, 2, "mark of row 2 does not sit in block 0"),
        ({"lambda": [4], "epsilon": [0], "nu": [-2]}, 2, "marking value of row 1 below -ell"),
        ({"lambda": [2, 2], "epsilon": [0, 0], "nu": [0, 2]}, 1, "row 2 violates the striped ordering"),
        # row 3 breaks the ordering against row 1 only
        ({"lambda": [4, 3, 2], "epsilon": [0, 0, 0], "nu": [0, 1, 2]}, 2, "row 3 violates"),
    ],
    ids=["mark-outside-block-0", "second-mark-outside", "below-ell", "ordering", "ordering-row-3"],
)
def test_translate_names_the_broken_striped_condition(bad, ell, message):
    # the public constructor still checks every striped condition
    code, out, err = run_cli(
        ["translate", "--from", "johnson", "--to", "label", "--input", "-", "--ell", str(ell)],
        json.dumps(bad),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_decompose_cli():
    rep = direct_sum(build_framed(Partition([2, 1]), 1), build_chain(0, 1, 1))
    code, out, _ = run_cli(["decompose", "--input", "-"], json.dumps(rep.to_json()))
    assert code == 0
    first = out.splitlines()[0]
    assert json.loads(first) == {"lambda": [2, 1], "nu": [[1]]}
    assert "chain summand: start 0, length 1" in out


def test_decompose_rejects_non_nilpotent():
    rep = {
        "ell": 1,
        "dims": {"framing": 1, "main": [1]},
        "maps": [[["1"]]],
        "framing_vector": ["1"],
    }
    code, _, err = run_cli(["decompose", "--input", "-"], json.dumps(rep))
    assert code == 2
    assert "cycle" in err and "1" in err


def test_decompose_rejects_zero_denominator():
    rep = {
        "ell": 1,
        "dims": {"framing": 1, "main": [1]},
        "maps": [[["0"]]],
        "framing_vector": ["1/0"],
    }
    code, _, err = run_cli(["decompose", "--input", "-"], json.dumps(rep))
    assert code == 2
    assert "error" in err and "1/0" in err and "Traceback" not in err
    rep["maps"], rep["framing_vector"] = [[["1/0"]]], ["1"]
    code, _, err = run_cli(["decompose", "--input", "-"], json.dumps(rep))
    assert code == 2
    assert "error" in err and "1/0" in err and "Traceback" not in err


def test_decompose_refuses_a_huge_exponent_at_once():
    # Fraction("1e999999999") would build a billion-digit power of ten
    rep = {
        "ell": 1,
        "dims": {"framing": 1, "main": [1]},
        "maps": [[["0"]]],
        "framing_vector": ["1e999999999"],
    }
    code, _, err = run_cli(["decompose", "--input", "-"], json.dumps(rep), timeout=20)
    assert code == 2
    assert err == "error: the decimal exponent in '1e999999999' exceeds 4300 in magnitude\n"


@pytest.mark.parametrize(
    "target, want",
    [
        ("johnson", '{"epsilon": [0], "lambda": [300000000], "nu": [1]}\n'),
        ("ah", '{"mu": [1], "nu": [299999999]}\n'),
    ],
    ids=["johnson", "ah"],
)
def test_translate_a_huge_part_builds_no_transpose(target, want, monkeypatch, capsys):
    # the Frobenius legs are read off the parts, so a part of 3e8 boxes
    # costs no column list of that length
    def refuse(self):
        raise AssertionError("transpose called")

    monkeypatch.setattr(Partition, "transpose", refuse)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"lambda":[300000000],"nu":[[]]}'))
    args = ["translate", "--from", "label", "--to", target, "--input", "-"]
    assert main(args) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "args, payload, message",
    [
        (
            ["--from", "johnson", "--ell", "10000000"],
            {"lambda": [], "epsilon": [], "nu": []},
            "the johnson input has ell 10000000 and largest marking 0",
        ),
        (
            ["--from", "ah"],
            {"mu": [10000000], "nu": []},
            "the ah input has ell 1 and largest marking 10000000",
        ),
        (
            ["--from", "johnson", "--ell", "1"],
            {"lambda": [10000000], "epsilon": [0], "nu": [10000000]},
            "the johnson input has ell 1 and largest marking 10000000",
        ),
    ],
    ids=["johnson-ell", "ah-marking", "johnson-marking"],
)
def test_translate_refuses_a_huge_label_at_once(args, payload, message):
    # a short input would otherwise print a label of ell components or of
    # (largest marking) parts: tens of megabytes
    argv = ["translate", *args, "--to", "label", "--input", "-"]
    code, out, err = run_cli(argv, json.dumps(payload), timeout=20)
    assert (code, out) == (2, "")
    assert err == f"error: {message}; translate takes at most 100000 of each\n"


def test_translate_prints_a_label_at_the_bound(monkeypatch, capsys):
    def translate(source, payload, *ell):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        return main(["translate", "--from", source, "--to", "label", "--input", "-", *ell])

    assert translate("ah", {"mu": [100000], "nu": []}) == 0
    assert capsys.readouterr().out == json.dumps({"lambda": [1] * 100000, "nu": [[]]}) + "\n"
    assert translate("johnson", {"lambda": [], "epsilon": [], "nu": []}, "--ell", "100000") == 0
    assert capsys.readouterr().out == json.dumps({"lambda": [], "nu": [[]] * 100000}) + "\n"
    assert translate("ah", {"mu": [100001], "nu": []}) == 2
    assert "translate takes at most 100000" in capsys.readouterr().err


@pytest.mark.parametrize("source, key", [("label", "lambda"), ("ah", "mu")])
def test_translate_cuts_many_trailing_zeros_at_once(source, key, monkeypatch, capsys):
    # a 480 KB input whose zeros the constructor once stripped one at a time
    payload = {key: [1] + [0] * 160000, "nu": [[]] if source == "label" else []}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["translate", "--from", source, "--to", "label", "--input", "-"]) == 0
    assert capsys.readouterr().out == '{"lambda": [1], "nu": [[]]}\n'


def test_decompose_rejects_malformed_json():
    code, _, err = run_cli(["decompose", "--input", "-"], "{nope")
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["decompose", "--input", "-"],
        ["translate", "--from", "label", "--to", "ah", "--input", "-"],
        ["render", "--diagram", "-"],
    ],
    ids=["decompose", "translate", "render"],
)
def test_deeply_nested_json_exits_2(command):
    # the JSON decoder's nesting limit is one more way JSON is invalid here
    code, out, err = run_cli(command, "[" * 200_000, timeout=FAST_REFUSAL_S)
    assert (code, out) == (2, "")
    assert err.startswith("error: input is not valid JSON") and err.count("\n") == 1
    assert "Traceback" not in err


def test_decompose_rejects_missing_keys():
    code, _, err = run_cli(["decompose", "--input", "-"], json.dumps({"ell": 1}))
    assert code == 2
    assert "error" in err and "dims" in err and "Traceback" not in err


def test_decompose_rejects_non_object_json():
    code, _, err = run_cli(["decompose", "--input", "-"], json.dumps([1, 2]))
    assert code == 2
    assert "error" in err and "Traceback" not in err


def test_translate_ah_rejects_missing_keys():
    code, _, err = run_cli(
        ["translate", "--from", "ah", "--to", "label", "--input", "-"],
        json.dumps({"mu": [2, 1]}),
    )
    assert code == 2
    assert "error" in err and "nu" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "source, payload, field",
    [
        ("label", {"lambda": "21", "nu": [[]]}, "lambda"),
        ("label", {"lambda": [1.5], "nu": [[]]}, "lambda"),
        ("label", {"lambda": [True], "nu": [[]]}, "lambda"),
        ("ah", {"mu": [2.9], "nu": []}, "mu"),
        ("johnson", {"lambda": [2.0, 1], "epsilon": [0, 1], "nu": [2, 0]}, "lambda"),
    ],
)
def test_translate_rejects_non_integer_json(source, payload, field):
    # a float, bool or string is refused, never truncated to another label
    code, out, err = run_cli(
        ["translate", "--from", source, "--to", "label", "--input", "-", "--ell", "2"],
        json.dumps(payload),
    )
    assert code == 2 and out == ""
    assert "error" in err and field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"ell": 1.5}, "ell"),
        ({"dims": {"framing": 1, "main": "1"}}, "main"),
        ({"dims": {"framing": 1, "main": [1.7]}}, "main"),
        ({"ell": 0}, "ell"),
        ({"ell": 2}, "ell"),
        ({"framing_vector": [True]}, "True"),
        ({"framing_vector": "1"}, "framing_vector"),
        ({"maps": [["0"]]}, "maps"),
        ({"maps": ["0"]}, "maps"),
        ({"maps": [[["0"]], [["0"]]]}, "maps"),
        ({"dims": [1, 2]}, "dims"),
    ],
)
def test_decompose_rejects_non_integer_json(change, field):
    rep = {
        "ell": 1,
        "dims": {"framing": 1, "main": [1]},
        "maps": [[["0"]]],
        "framing_vector": ["1"],
    }
    code, out, err = run_cli(["decompose", "--input", "-"], json.dumps({**rep, **change}))
    assert code == 2 and out == ""
    assert "error" in err and field in err and "Traceback" not in err


def test_package_runs_as_a_module():
    rep = build_framed(Partition([2, 1]), 1)
    code, out, err = run_cli(
        ["decompose", "--input", "-"], json.dumps(rep.to_json()), module="nilquiver"
    )
    assert code == 0, err
    assert json.loads(out.splitlines()[0]) == {"lambda": [2, 1], "nu": [[]]}


def test_render_partition(capsys):
    assert main(["render", "--partition", "[1]", "--format", "ascii"]) == 0
    assert capsys.readouterr().out.strip() == "[]"
    assert main(["render", "--partition", "[6,4,4,2]", "--ell", "4", "--format", "ascii"]) == 0
    out = capsys.readouterr().out
    assert "s1" in out and "s2" in out and "s3" in out
    assert main(["render", "--partition", "[3,1]", "--format", "latex-ytableau"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\begin{ytableau}") and out.strip().endswith("\\end{ytableau}")


@pytest.mark.parametrize("fmt", ["ascii", "dot", "latex-ytableau"])
def test_render_refuses_a_huge_partition_at_once(fmt):
    # a 13-byte argument would otherwise buy 600 MB of ASCII boxes
    args = ["render", "--partition", "[300000000]", "--ell", "3", "--format", fmt]
    code, out, err = run_cli(args, timeout=20)
    assert (code, out) == (2, "")
    assert err == "error: the partition has 300000000 boxes; render draws at most 100000\n"


def test_render_draws_a_partition_at_the_box_bound(capsys):
    assert main(["render", "--partition", "[50000,50000]", "--format", "ascii"]) == 0
    assert capsys.readouterr().out == ("[]" * 50000 + "\n") * 2
    assert main(["render", "--partition", "[50000,50000,1]", "--format", "ascii"]) == 2
    assert "render draws at most 100000" in capsys.readouterr().err


@pytest.mark.parametrize("mark", [None, 0])
@pytest.mark.parametrize("fmt", ["ascii", "dot", "latex-ytableau"])
def test_render_refuses_a_huge_diagram_at_once(fmt, mark):
    # a 70-byte circle would otherwise buy as much output as "[300000000]"
    diagram = {"ell": 3, "circles": [{"start": 0, "len": 300000000, "mark": mark}]}
    args = ["render", "--diagram", "-", "--format", fmt]
    code, out, err = run_cli(args, json.dumps(diagram), timeout=20)
    assert (code, out) == (2, "")
    assert err == "error: the diagram has 300000000 boxes; render draws at most 100000\n"


def test_render_draws_a_diagram_at_the_box_bound(monkeypatch, capsys):
    def render(lengths):
        circles = [{"start": 0, "len": length, "mark": None} for length in lengths]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"ell": 1, "circles": circles})))
        return main(["render", "--diagram", "-", "--format", "ascii"])

    assert render([60000, 40000]) == 0
    assert capsys.readouterr().out.count(" 0 ") == 100000
    assert render([60000, 40000, 1]) == 2
    assert capsys.readouterr().err == (
        "error: the diagram has 100001 boxes; render draws at most 100000\n"
    )


#: A short input that asks for 50,000,000 blocks, in each of the three
#: forms ``render`` reads: a partition and its ell, diagram JSON, DOT text.
HUGE_ELL_RENDERS = {
    "partition": (["--partition", "[1]", "--ell", "50000000"], None, "partition has 1 boxes", 50000000),
    "json": (["--diagram", "-"], '{"ell": 50000000, "circles": []}', "diagram has 0 boxes", 50000000),
    "dot": (["--diagram", "-"], "digraph circles {\n  subgraph cluster_50000000 {\n  }\n}\n",
            "diagram has 0 boxes", 50000001),
}

#: The most seconds a refused input may take.  The refusals below read
#: under 1 s each (about 0.2 s, and 0.6-0.9 s for the enumeration cap of
#: 1,000,000 labels); growing the output before the bound took 10-20 s.
FAST_REFUSAL_S = 5


@pytest.mark.parametrize("form", HUGE_ELL_RENDERS)
def test_render_dot_refuses_a_huge_ell_at_once(form):
    # DOT writes one cluster per block, so the blocks count toward the bound
    args, stdin, what, ell = HUGE_ELL_RENDERS[form]
    code, out, err = run_cli(["render", *args, "--format", "dot"], stdin, timeout=FAST_REFUSAL_S)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the {what} in {ell} blocks; "
        "render --format dot draws at most 100000 boxes and blocks\n"
    )


def test_render_dot_draws_at_the_block_bound(monkeypatch, capsys):
    assert main(["render", "--partition", "[1]", "--ell", "99999", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("subgraph cluster_") == 99999 and out.count("shape=box") == 1
    assert main(["render", "--partition", "[1]", "--ell", "100000", "--format", "dot"]) == 2
    assert "draws at most 100000 boxes and blocks" in capsys.readouterr().err
    # ASCII and ytableau output do not grow with ell
    assert main(["render", "--partition", "[2]", "--ell", "50000000", "--format", "ascii"]) == 0
    assert capsys.readouterr().out == "[s1][ 1]\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(HUGE_ELL_RENDERS["json"][1]))
    assert main(["render", "--diagram", "-", "--format", "latex-ytableau"]) == 0
    assert capsys.readouterr().out == "\\begin{ytableau}\n\n\\end{ytableau}\n"


def test_render_diagram_dot_parses_back(tmp_path):
    from nilquiver import from_dot

    # [1] at ell 3 leaves blocks 1 and 2 empty: ell is read from the clusters
    for parts, ell in [([3, 1], 2), ([1], 3)]:
        diagram = frobenius_diagram_of_partition(Partition(parts), ell)
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(diagram.to_json()))
        code, out, _ = run_cli(["render", "--diagram", str(path), "--format", "dot"])
        assert code == 0
        assert from_dot(out) == diagram
        # and the DOT text itself is accepted back as input
        code, out2, _ = run_cli(["render", "--diagram", "-", "--format", "ascii"], out)
        assert code == 0 and out2.startswith(f"ell={ell}\n")


def test_unreadable_input_exits_2(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        for argv in (
            ["decompose", "--input", str(path)],
            ["translate", "--from", "ah", "--to", "label", "--input", str(path)],
            ["render", "--diagram", str(path)],
        ):
            code, _, err = run_cli(argv)
            assert code == 2, argv
            assert "error" in err and "Traceback" not in err


def test_render_rejects_malformed_diagram():
    for bad in ([1, 2], {"ell": 2}, {"ell": 2, "circles": [{"start": 0, "mark": None}]}):
        code, _, err = run_cli(["render", "--diagram", "-"], json.dumps(bad))
        assert code == 2, bad
        assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "circle, field",
    [
        ({"start": 0, "len": 2.7, "mark": None}, "len"),
        ({"start": 0, "len": "3", "mark": None}, "len"),
        ({"start": "1", "len": 3, "mark": None}, "start"),
        ({"start": 1, "len": 2, "mark": 1.0}, "mark"),
    ],
)
def test_render_rejects_non_integer_diagram(circle, field):
    # a float, bool or string is refused, never truncated to another diagram
    for ell in (2, 1.5, True):
        bad = {"ell": ell, "circles": [circle]}
        code, out, err = run_cli(["render", "--diagram", "-"], json.dumps(bad))
        assert code == 2 and out == "", bad
        assert "error" in err and (field if ell == 2 else "ell") in err and "Traceback" not in err


def test_render_rejects_malformed_dot():
    # a cycle behind a chain head hung the parser; the rest parsed silently
    chain = to_dot(CircleDiagram(3, ((0, 3),)))  # c0_0 -> c0_1 -> c0_2
    pair = to_dot(CircleDiagram(3, ((0, 1), (0, 1))))  # c0_0 and c1_0, both in block 0
    marked = to_dot(frobenius_diagram_of_partition(Partition([1]), 3))
    texts = {
        "cycle behind a head": chain[:-1] + "  c0_2 -> c0_1;\n}",
        "closed cycle": chain[:-1] + "  c0_2 -> c0_0;\n}",
        "two successors": chain[:-1] + "  c0_0 -> c0_2;\n}",
        "undeclared node": chain[:-1] + "  c0_2 -> c9_9;\n}",
        "block skipped": pair[:-1] + "  c0_0 -> c1_0;\n}",
        "mark outside block 0": marked.replace('label="0"];', 'label="1"];'),
        "marked record on unmarked circles": chain.replace("rankdir=LR;", 'rankdir=LR;\n  comment="marked";'),
        "unmarked record on marked circles": marked.replace('comment="marked"', 'comment="unmarked"'),
        "two records": marked.replace('comment="marked";', 'comment="marked";\n  comment="marked";'),
    }
    for name, text in texts.items():
        code, out, err = run_cli(["render", "--diagram", "-"], text, timeout=10)
        assert code == 2 and out == "", name
        assert "error" in err and "Traceback" not in err, name


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_empty_diagram_dot_reads_back(ell, monkeypatch, capsys):
    # DOT with clusters but no nodes is the empty diagram of that ell, and
    # the graph comment keeps the empty marked diagram marked
    def render(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(["render", *argv, "--format", "dot"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        return captured.out

    marked = render(["--partition", "[]", "--ell", str(ell)])
    unmarked = render(["--diagram", "-"], json.dumps({"ell": ell, "circles": []}))
    assert marked.count("subgraph cluster_") == unmarked.count("subgraph cluster_") == ell
    assert 'comment="marked";' in marked and "comment" not in unmarked
    for dot in (marked, unmarked):
        assert render(["--diagram", "-"], dot) == dot


def test_decompose_reports_a_cycle_that_is_not_nilpotent(tmp_path):
    # v = e0 + e1 has a component in the part where the cycle at vertex 0
    # acts as the identity, so the walk x^k v never reaches zero
    rep = {
        "ell": 2,
        "dims": {"framing": 1, "main": [2, 1]},
        "maps": [[["0", "1"]], [["0"], ["1"]]],
        "framing_vector": ["1", "1"],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(["decompose", "--input", str(path)], timeout=10)
    assert code == 2 and out == ""
    assert "cycle map is not nilpotent: the composite of 3 arrows from vertex 0 has rank 1" in err
    assert "Traceback" not in err


def test_render_rejects_nonpositive_ell():
    for ell in ("0", "-1"):
        code, out, err = run_cli(["render", "--partition", "[2,1]", "--ell", ell])
        assert code == 2 and out == ""
        assert "error" in err and "Traceback" not in err


def test_render_requires_exactly_one_input(capsys):
    assert main(["render", "--format", "ascii"]) == 2


def test_reptype_cli(capsys):
    assert main(["reptype", "2", "2"]) == 0
    assert "tame" in capsys.readouterr().out
    assert main(["reptype", "3", "2"]) == 0
    out = capsys.readouterr().out
    assert "wild" in out and "q = -1" in out
    assert main(["reptype", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "finite" in out and "witness" not in out


def test_selfcheck(capsys):
    assert main(["selfcheck", "--n", "3", "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    assert main(["selfcheck", "--n", "1", "--ell", "2"]) == 0
    capsys.readouterr()
    assert main(["selfcheck", "--n", "0", "--ell", "1"]) == 0


@pytest.mark.parametrize("ell", [1, 2])
def test_selfcheck_label_count_fails_on_a_wrong_count(monkeypatch, capsys, ell):
    # the label-count line compares the labels with the knapsack count,
    # which shares no code with the enumeration, so a wrong count shows
    real = cli.cone_count
    monkeypatch.setattr(cli, "cone_count", lambda n, ell: real(n, ell) + 1)
    assert main(["selfcheck", "--n", "2", "--ell", str(ell)]) == 1
    out = capsys.readouterr().out
    assert "FAIL label-count" in out
    assert out.count("FAIL") == 1 and out.count("PASS") == 4


@pytest.mark.parametrize("n, ell", [(3, 1), (2, 2), (1, 3)])
def test_selfcheck_decomposes_each_label_once(n, ell, capsys):
    assert main(["selfcheck", "--n", str(n), "--ell", str(ell)]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = len(enumerate_orbit_labels(n, ell))
    assert f"PASS label-count ({labels} labels)" in lines
    assert f"PASS decomposition-oracle ({labels} cases)" in lines


def test_selfcheck_decomposition_oracle_fails_on_a_wrong_label(monkeypatch, capsys):
    # the (3, 1) cone has 10 labels; only the last one decomposes wrongly
    real = cli.decompose_enhanced
    calls = []

    def decompose(rep):
        calls.append(rep)
        got = real(rep)
        return got if len(calls) < 10 else dataclasses.replace(got, framed_part=Partition([4]))

    monkeypatch.setattr(cli, "decompose_enhanced", decompose)
    assert main(["selfcheck", "--n", "3", "--ell", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL decomposition-oracle (10 cases)" in out.splitlines()
    assert out.count("FAIL") == 1 and len(calls) == 10


SELFCHECK_CAP = f"error: enumeration exceeds the cap of {cli.SELFCHECK_MAX_LABELS}\n"


@pytest.mark.parametrize(
    "n, ell, message",
    [
        (2, 900, SELFCHECK_CAP),
        (1000, 1000, SELFCHECK_CAP),  # refused by the count bound, before any search
        (6, 3, SELFCHECK_CAP),  # 86,036 labels, under the enumeration cap
    ],
    ids=["many-vertices", "too-deep", "over-the-bound"],
)
def test_selfcheck_refuses_an_oversized_cone_before_printing(n, ell, message):
    code, out, err = run_cli(["selfcheck", "--n", str(n), "--ell", str(ell)], timeout=20)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "command, message",
    [
        ("enumerate-orbits", "error: enumeration exceeds the cap of 1000000\n"),
        ("selfcheck", SELFCHECK_CAP),
    ],
    ids=["enumerate-orbits", "selfcheck"],
)
def test_a_huge_n_reaches_the_cap_at_once(command, message):
    # the longest row that fits is read off the deficit, not grown box by box
    args = [command, "--n", "100000000", "--ell", "1"]
    code, out, err = run_cli(args, timeout=FAST_REFUSAL_S)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("command", ["enumerate-orbits", "selfcheck"])
@pytest.mark.parametrize("n, ell", [(0, 100_001), (1, 10**8)])
def test_an_ell_past_the_bound_is_refused_at_once(command, n, ell):
    # refused before a vector of ell entries is built
    code, out, err = run_cli([command, "--n", str(n), "--ell", str(ell)], timeout=FAST_REFUSAL_S)
    assert (code, out) == (2, "")
    assert err == f"error: the cone has ell {ell}; {command} takes at most 100000\n"


def test_the_zero_cone_at_the_ell_bound_lists_its_label_fast():
    # each row costs its nonempty components, not ell
    args = ["enumerate-orbits", "--n", "0", "--ell", "100000"]
    code, out, err = run_cli(args, timeout=FAST_REFUSAL_S)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].endswith(" [ok]") and lines[1] == "total: 1"


def test_selfcheck_admits_a_cone_at_the_bound(monkeypatch, capsys):
    # (n, ell) = (1, 3) has 14 labels
    monkeypatch.setattr(cli, "SELFCHECK_MAX_LABELS", 14)
    assert main(["selfcheck", "--n", "1", "--ell", "3"]) == 0
    assert capsys.readouterr().out == (
        "PASS frobenius-roundtrip (7 partitions)\n"
        "PASS diagram-roundtrip\n"
        "PASS core-quotient-roundtrip\n"
        "PASS label-count (14 labels)\n"
        "PASS decomposition-oracle (14 cases)\n"
    )
    monkeypatch.setattr(cli, "SELFCHECK_MAX_LABELS", 13)
    assert main(["selfcheck", "--n", "1", "--ell", "3"]) == 2
    assert capsys.readouterr() == ("", "error: enumeration exceeds the cap of 13\n")


def test_bad_flags_exit_2():
    code, _, _ = run_cli(["enumerate-orbits", "--n", "-1", "--ell", "1"])
    assert code == 2
    code, _, _ = run_cli(["enumerate-orbits", "--n", "1"])
    assert code == 2


# ---------------------------------------------------------------------------
# parser built per call
# ---------------------------------------------------------------------------


def cli_outcome(capsys, argv):
    """(stdout, stderr, exit code) of main(argv), argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def parser_corpus(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(build_framed(Partition([2, 1]), 1).to_json()))
    ah = tmp_path / "ah.json"
    ah.write_text(json.dumps({"mu": [2, 1], "nu": [1]}))
    rep, ah = str(rep), str(ah)
    return [
        [],
        ["-h"],
        ["--help"],
        ["frobnicate"],
        ["--n", "3", "enumerate-orbits", "--ell", "1"],
        ["-h", "translate"],
        *([command, "-h"] for command in cli.COMMANDS),
        ["enumerate-orbits", "--n", "3"],
        ["translate", "--from", "ah", "--input", ah],
        ["decompose"],
        ["render", "--ell"],
        ["reptype", "2"],
        ["selfcheck", "--ell", "1"],
        ["translate", "--from", "xml", "--to", "label", "--input", ah],
        ["render", "--partition", "[2]", "--format", "png"],
        ["enumerate-orbits", "--n", "three", "--ell", "1"],
        ["selfcheck", "--n", "1", "--ell", "1.5"],
        ["reptype", "2", "2", "3"],
        ["decompose", "--input", rep, "--bogus"],
        ["decompose", "--input", rep, "translate"],
        ["decompose", "--inp", rep],
        ["translate", "--fr", "ah", "--to", "johnson", "--inp", ah, "--el", "1"],
        # --opt=value, abbreviations, a repeated option and "--"
        ["translate", "--from=ah", "--to=johnson", f"--input={ah}", "--ell=1"],
        ["enumerate-orbits", "--n=2", "--el=2", "--x=1"],
        ["render", "--part", "[3,1]", "--form", "dot", "--e", "2"],
        ["enumerate-orbits", "--n", "1", "--n", "2", "--ell", "1"],
        ["reptype", "3", "--", "2"],
        ["reptype", "--", "2", "2"],
        # help after other options, an extra positional, an unknown option
        # ahead of the required ones
        ["translate", "--from", "ah", "--to", "label", "-h"],
        ["enumerate-orbits", "--n", "2", "--ell", "1", "--help"],
        ["enumerate-orbits", "--n", "1", "--ell", "1", "extra"],
        ["selfcheck", "--n", "1", "--ell", "1", "1"],
        ["enumerate-orbits", "--bogus", "--n", "1", "--ell", "1"],
        ["translate", "--verbose", "--from", "ah", "--to", "label", "--input", ah],
        ["decompose", "--bogus", "--input"],
        ["enumerate-orbits", "--n", "2", "--ell", "2"],
        ["translate", "--from", "ah", "--to", "label", "--input", ah],
        ["decompose", "--input", rep],
        ["render", "--partition", "[3,1]", "--ell", "2"],
        ["reptype", "3", "2"],
        ["selfcheck", "--n", "1", "--ell", "1"],
    ]


def test_main_matches_the_all_commands_parser(tmp_path, monkeypatch, capsys):
    corpus = parser_corpus(tmp_path)
    got = [cli_outcome(capsys, argv) for argv in corpus]
    # the oracle: every call parsed by the parser that carries all six commands
    monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
    expected = [cli_outcome(capsys, argv) for argv in corpus]
    for argv, a, b in zip(corpus, got, expected):
        assert a == b, argv
    codes = {code for _, _, code in got}
    assert codes == {0, 2}


def test_main_builds_only_the_invoked_command(monkeypatch, capsys):
    built = []
    table = {
        name: (help_line, lambda parser, name=name, add=add: (built.append(name), add(parser)))
        for name, (help_line, add) in cli.COMMANDS.items()
    }
    monkeypatch.setattr(cli, "COMMANDS", table)
    assert main(["reptype", "2", "2"]) == 0
    assert built == ["reptype"]
    built.clear()
    for argv in (["-h"], ["frobnicate"], []):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == list(table), argv
        built.clear()
    capsys.readouterr()


def count_parsers(monkeypatch):
    """The prog of every ``argparse.ArgumentParser`` built from now on,
    subparsers included, in the order they are built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_well_formed_call_builds_one_parser(tmp_path, monkeypatch, capsys):
    calls = parser_corpus(tmp_path)[-6:]
    assert [argv[0] for argv in calls] == list(cli.COMMANDS)
    built = count_parsers(monkeypatch)
    for argv in calls:
        assert main(argv) == 0, argv
        assert built == [f"nilquiver {argv[0]}"], argv
        built.clear()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["reptype", "2", "2", "3"],
        ["enumerate-orbits", "--bogus", "--n", "1", "--ell", "1"],
        ["selfcheck", "--n", "1", "--ell", "1", "--", "x"],
    ],
    ids=["extra-positional", "unknown-option-first", "after-double-dash"],
)
def test_an_unrecognized_argument_reaches_the_full_parser(argv, monkeypatch, capsys):
    built = count_parsers(monkeypatch)
    got = cli_outcome(capsys, argv)
    full = ["nilquiver", *(f"nilquiver {name}" for name in cli.COMMANDS)]
    assert built == [f"nilquiver {argv[0]}", *full]
    built.clear()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    assert got == (captured.out, captured.err, exc.value.code)
    assert got[0] == "" and got[2] == 2
    assert got[1].startswith("usage: nilquiver [-h]")
    assert "error: unrecognized arguments: " in got[1]


def test_help_and_usage_text_ignore_the_terminal_width(monkeypatch, capsys):
    # help, usage and error lines wrap at one width, so they are the same
    # bytes under any COLUMNS
    calls = [["--help"], ["translate", "--help"], ["translate", "--from", "ah"]]
    outcomes = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        outcomes.append([cli_outcome(capsys, argv) for argv in calls])
    assert outcomes[0] == outcomes[1]
    assert [code for _, _, code in outcomes[0]] == [0, 0, 2]
    assert "error: the following arguments are required: --to, --input" in outcomes[0][2][1]


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["nilquiver", "reptype", "2", "2"])
    assert main() == 0
    assert capsys.readouterr().out == "(ell, x) = (2, 2): tame\n"


def test_module_help_lists_every_command():
    code, out, err = run_cli(["--help"], module="nilquiver")
    assert code == 0 and err == ""
    usage = "{" + ",".join(cli.COMMANDS) + "}"
    assert usage in out
    for command in cli.COMMANDS:
        assert f"    {command}" in out, command
