import hashlib
import json
import os
import runpy
import shlex
import sys

import pytest

from kellerlab.bundled import bundled_text
from kellerlab import keller, lattice
from kellerlab.cli import build_parser, main
from kellerlab.expr_io import parse_int

MAPS = "src/kellerlab/data"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tri2(tmp_path):
    p = tmp_path / "triangular_2.map"
    p.write_text(bundled_text("triangular_2.map"))
    return str(p)


@pytest.fixture
def bif(tmp_path):
    p = tmp_path / "bif.map"
    p.write_text(bundled_text("bif_x_xy.map"))
    return str(p)


@pytest.fixture
def cfsys(tmp_path):
    p = tmp_path / "cf.sys"
    p.write_text(bundled_text("cf_triangular_2.sys"))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_verb(capsys, tri2):
    code, out, err = run(capsys, "check", tri2)
    assert code == 0
    assert out.strip() == "keller: yes, cubic-linear: yes, inverse: exact (degree 3)"


def test_check_json_deterministic(capsys, tri2):
    code1, out1, _ = run(capsys, "check", "--json", tri2)
    code2, out2, _ = run(capsys, "check", "--json", tri2)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verb"] == "check"
    assert doc["results"]["keller"] is True
    assert doc["results"]["inverse"]["exact"] is True


def test_bifurcation_verb(capsys, bif):
    code, out, err = run(capsys, "bifurcation", bif)
    assert code == 0
    lines = out.splitlines()
    assert "H = Y1" in lines
    assert "cone = Y1" in lines
    assert "d_F = 1" in lines


def test_sigma_verb_with_eval(capsys, bif):
    code, out, err = run(capsys, "sigma", bif, "--eval", "1,0;1,1")
    assert code == 0
    assert "sigma = V1" in out
    assert "sigma(u, v) = 1" in out


def test_bifurcation_without_fiber_degree_samples_nothing(capsys, monkeypatch, tmp_path):
    # (x^2, xy) has d_F = 2, which only a sampled fiber gives
    def refuse(F, H):
        raise AssertionError("sampled a fiber")

    monkeypatch.setattr("kellerlab.fibers._sample_fiber_degree", refuse)
    path = tmp_path / "double.map"
    path.write_text("vars: x y\nF1 = x^2\nF2 = x*y\n")
    code, out, err = run(capsys, "bifurcation", str(path), "--no-fiber-degree")
    assert code == 0
    assert {"d_F = skipped", "H = Y1"} <= set(out.splitlines())


def test_triangular_6_sigma_answers_where_bifurcation_exits_on_its_budget(capsys):
    # sigma reads its answer off the certified inverse; bifurcation still
    # runs the eliminations, whose first basis needs degree 81
    path = os.path.join(ROOT, MAPS, "triangular_6.map")
    assert run(capsys, "bifurcation", path) == (
        3, "", "error: basis element degree 81 exceeds budget 80; input beyond desk scale\n")
    assert run(capsys, "sigma", path) == (0, "sigma = 1\n", "")
    code, out, err = run(capsys, "sigma", path, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["results"], doc["stats"]) == ({"sigma": "1"}, {"route": "inverse"})


def test_sigma_json_reports_its_route_beside_results(capsys, tri2, bif):
    for path, route in ((tri2, "inverse"), (bif, "elimination")):
        code, out, err = run(capsys, "sigma", path, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["stats"] == {"route": route}


def test_python_dash_m_runs_the_cli(capsys, bif, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["kellerlab", "sigma", bif])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("kellerlab", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "sigma = V1\n"


def test_sigma_eval_usage_error(capsys, bif):
    code, out, err = run(capsys, "sigma", bif, "--eval", "1,0")
    assert code == 1
    assert "error" in err


def test_zero_direction_is_rejected_by_sigma_and_curve_alike(capsys, bif):
    for argv in (["sigma", bif, "--eval", "1,2;0,0"],
                 ["sigma", bif, "--eval=1,2;0,0", "--json"],
                 ["curve", bif, "--kind", "line", "--u", "1,2", "--v", "0,0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: direction must be nonzero\n")


def test_wrong_length_vectors_are_rejected_by_sigma_and_curve_alike(capsys, bif):
    # one line rule, so one message: a line in the wrong space, and a point
    # and direction of different lengths
    for u, v, err in (
        ("1,2,3", "1,1,1", "error: point and direction must have 2 coordinates\n"),
        ("1,2", "1", "error: point and direction have different lengths\n"),
    ):
        for argv in (["sigma", bif, f"--eval={u};{v}"],
                     ["sigma", bif, f"--eval={u};{v}", "--json"],
                     ["curve", bif, "--kind", "line", "--u", u, "--v", v]):
            assert run(capsys, *argv) == (1, "", err)


def test_transform_scale(capsys, tri2):
    code, out, err = run(capsys, "transform", "scale", "--r", "2", tri2)
    assert code == 0
    assert "F1 = x1 + 4*x2^3" in out


def test_transform_theoremB_and_cor1(capsys, tri2):
    code, out, _ = run(capsys, "transform", "theoremB", "--weights", "1,2", tri2)
    assert code == 0
    assert "F1 = x1 + 32768*x2^3" in out
    code, out, _ = run(capsys, "transform", "cor1", tri2)
    assert code == 0
    assert "vars: x1 x2 x3" in out


@pytest.mark.parametrize("name, argv, cubes", [
    # triangular_2 has one nonzero row, and so has each output; triangular_3
    # has two, its theoremB output two and its cor1 output two
    ("triangular_2", ["theoremB", "--weights=2,3"], 1 + 1),
    ("triangular_2", ["cor1"], 1 + 1),
    ("triangular_3", ["theoremB", "--weights=2,3,5"], 2 + 2),
    ("triangular_3", ["cor1"], 2 + 2),
])
def test_transform_cubes_each_row_once(capsys, tmp_path, monkeypatch, name, argv, cubes):
    # recognition cubes each nonzero input row once, and the output map is
    # expanded once: the check and the printed map share it
    calls = []
    inner = keller._packed_cube

    def counting(packed):
        calls.append(packed)
        return inner(packed)

    monkeypatch.setattr(keller, "_packed_cube", counting)
    path = tmp_path / f"{name}.map"
    path.write_text(bundled_text(f"{name}.map"))
    code, _, _ = run(capsys, "transform", argv[0], str(path), *argv[1:])
    assert code == 0
    assert len(calls) == cubes


def test_transform_theoremB_rejects_non_cubic_linear(capsys, bif):
    code, out, err = run(capsys, "transform", "theoremB", "--weights", "1,1", bif)
    assert code == 1
    assert "not cubic-linear" in err


@pytest.mark.parametrize("argv", [["theoremB", "--weights=1,1"], ["cor1"]])
def test_transform_non_square_map_names_no_component(capsys, tmp_path, argv):
    # a rejection of the whole map has no component number to report
    path = tmp_path / "wide.map"
    path.write_text("vars: x y z\nF1 = x + y^3\nF2 = y\n")
    code, out, err = run(capsys, "transform", argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: map is not cubic-linear (map is not square)\n"


def test_transform_output_file(capsys, tri2, tmp_path):
    target = tmp_path / "out.map"
    code, out, _ = run(capsys, "transform", "extend", "--m", "1", tri2,
                       "--output", str(target))
    assert code == 0
    assert "vars: x1 x2 z1" in target.read_text()


@pytest.mark.parametrize(
    "verb, suffix", [(["transform", "scale", "--r", "2"], "scale"), (["curve"], "cf")]
)
def test_derived_name_that_would_not_read_back_writes_nothing(capsys, tmp_path, verb, suffix):
    # an unnamed map's derived name is its path, whose '#' a reader would
    # take for a comment: the written file would read back as another name
    path = tmp_path / "a#b.map"
    path.write_text("vars: x1 x2\nF1 = x1 + x2^3\nF2 = x2\n")
    target = tmp_path / "out"
    code, out, err = run(capsys, *verb[:2], str(path), *verb[2:], "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: metadata entry 'name': {f'{path}-{suffix}'!r}")
    assert err.endswith(" would not read back from a file header\n")
    assert not target.exists()
    # without the '#' the path is the name, and reads back as written
    plain = tmp_path / "ab.map"
    plain.write_text(path.read_text())
    code, _, _ = run(capsys, *verb[:2], str(plain), *verb[2:], "--output", str(target))
    assert code == 0
    assert f"name: {plain}-{suffix}\n" in target.read_text()


def test_files_with_a_byte_order_mark_run(capsys, tmp_path, tri2, cfsys):
    for verb, name, plain in (("check", "triangular_2.map", tri2),
                              ("search", "cf_triangular_2.sys", cfsys)):
        path = tmp_path / ("bom-" + name)
        path.write_text(bundled_text(name), encoding="utf-8-sig")
        extra = ["--radius", "10"] if verb == "search" else []
        for j in ([], ["--json"]):
            assert run(capsys, verb, str(path), *extra, *j) == run(
                capsys, verb, plain, *extra, *j)


def test_sl_verbs(capsys):
    code, out, _ = run(capsys, "sl-complete", "--vector", "2,3,5")
    assert code == 0
    rows = [list(map(int, line.split())) for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == [2, 3, 5]

    code, out, _ = run(capsys, "sl-map", "--from", "1,0", "--to", "0,1")
    assert code == 0

    code, out, err = run(capsys, "sl-complete", "--vector", "2,4")
    assert code == 1
    assert "not primitive" in err


def test_curve_and_search_pipeline(capsys, tri2, tmp_path):
    sysfile = tmp_path / "cf.sys"
    code, _, _ = run(capsys, "curve", tri2, "--kind", "cf", "--output", str(sysfile))
    assert code == 0
    code, out, _ = run(capsys, "search", str(sysfile), "--radius", "10")
    assert code == 0
    lines = out.splitlines()
    assert "0 1" in lines
    assert "exhausted: yes" in lines


def test_search_bundled_system(capsys, cfsys):
    code, out, _ = run(capsys, "search", cfsys, "--radius", "10")
    assert code == 0
    assert "0 1" in out.splitlines()


def test_search_budget_exit_code(capsys, cfsys):
    code, out, _ = run(capsys, "search", cfsys, "--radius", "10", "--budget", "3")
    assert code == 3
    assert "exhausted: no" in out


def test_search_json_reports_stats_beside_results(capsys, cfsys):
    from kellerlab.diophantine import EquationSystem, format_report, search_box
    from kellerlab.expr_io import load_system_file

    system = EquationSystem(tuple(load_system_file(cfsys).to_polynomials()))
    report = search_box(system, 40)
    code, out, _ = run(capsys, "search", cfsys, "--radius", "40", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["results"]["nodes"] == report.nodes_visited == 89
    # 76 of the 81 values of x1 are dropped, and each of the other 5 has
    # one root extraction
    assert doc["stats"] == report.stats
    assert (report.stats["sieved"], report.stats["extractions"]) == (76, 5)
    assert report.stats["memo_entries"] > 0
    code, text, _ = run(capsys, "search", cfsys, "--radius", "40")
    assert text == format_report(report) and "stats" not in text


def test_curve_line_kind(capsys, tri2):
    code, out, _ = run(capsys, "curve", tri2, "--kind", "line",
                       "--u", "0,0", "--v", "0,1")
    assert code == 0
    assert "x1 + x2^3" in out


def test_curve_sumsq_kind(capsys, tri2):
    code, out, _ = run(capsys, "curve", tri2, "--kind", "sumsq")
    assert code == 0


def test_hurwitz_verb(capsys):
    code, out, _ = run(capsys, "hurwitz", "--d", "3", "--branches", "3")
    assert code == 1
    assert "infeasible: n_F=1 forces d=1, g=0" in out

    code, out, _ = run(capsys, "hurwitz", "--d", "2", "--branches", "2,2")
    assert code == 0
    assert "g = 0" in out and "feasible" in out

    code, out, _ = run(capsys, "hurwitz", "--d", "2", "--branches", "2",
                       "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["g"] == "-1/2"
    assert doc["results"]["feasible"] is False
    assert doc["results"]["reason"] == "non-integral genus"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search"])  # missing required --radius and sysfile
    assert exc.value.code == 2


def test_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, "check", "no_such_file.map")
    assert code == 1
    assert "cannot read" in err


def test_search_rejects_negative_budget(capsys, cfsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", cfsys, "--radius", "10", "--budget=-5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_search_rejects_negative_radius(capsys, cfsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", cfsys, "--radius=-1"])
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err


def test_check_computes_jacobian_once(capsys, tri2, monkeypatch):
    import kellerlab.keller

    calls = []
    det = kellerlab.keller.jacobian_det

    def counted(F):
        calls.append(F)
        return det(F)

    monkeypatch.setattr(kellerlab.keller, "jacobian_det", counted)
    code, out, _ = run(capsys, "check", tri2)
    assert code == 0
    assert out.strip() == "keller: yes, cubic-linear: yes, inverse: exact (degree 3)"
    assert len(calls) == 1


def test_search_budget_counts_the_tripping_node(capsys, cfsys):
    code, out, _ = run(capsys, "search", cfsys, "--radius", "10", "--budget", "0", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["results"]["exhausted"] is False
    assert doc["results"]["nodes"] == 1


def test_search_exponent_bomb_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bomb.sys"
    path.write_text("vars: x y\n(x+y+1)^200\n")
    code, out, err = run(capsys, "search", str(path), "--radius", "1", "--budget", "5")
    assert code == 1
    assert out == ""
    assert "line 2" in err and "degree" in err


def test_search_term_count_bomb_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bomb.sys"
    path.write_text("vars: x y z w\n(x+y+z+w+1)^60\n")
    code, out, err = run(capsys, "search", str(path), "--radius", "1", "--budget", "5")
    assert code == 1
    assert out == ""
    assert "line 2" in err and "terms" in err


def test_search_deep_nesting_is_a_parse_error(capsys, tmp_path):
    # one recursive call per '(' used to end in a RecursionError traceback
    path = tmp_path / "deep.sys"
    path.write_text("vars: x\n" + "(" * 1200 + "x" + ")" * 1200 + "\n")
    code, out, err = run(capsys, "search", str(path), "--radius", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2, column ") and "nest" in err
    assert "Traceback" not in err


def test_check_degree_cap_below_inverse_degree(capsys, tri2):
    code, out, err = run(capsys, "check", tri2, "--degree-cap", "2")
    assert code == 0
    assert out.strip().endswith("inverse: not invertible within bound (cap 2)")


def _check_inverse(capsys, path):
    """(the text after "inverse: ", the JSON "inverse" object) of `check`."""
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "")
    text = out.strip().split("inverse: ", 1)[1]
    code, out, err = run(capsys, "check", path, "--json")
    assert (code, err) == (0, "")
    return text, json.loads(out)["results"]["inverse"]


def test_check_inverse_of_a_map_with_singular_linear_part(capsys, bif):
    reason = "DF(0) is singular; no formal inverse"
    assert _check_inverse(capsys, bif) == (
        f"not defined ({reason})", {"degree_cap": 2, "exact": False, "reason": reason})


def test_check_inverse_of_a_non_keller_map_is_not_within_bound(capsys, tmp_path):
    # DF(0) is invertible, but det DF = 6 - 3y^2 is not constant
    path = tmp_path / "cubic.map"
    path.write_text("vars: x y\nF1 = 2*x + y^3\nF2 = x + 3*y\n")
    assert _check_inverse(capsys, str(path)) == (
        "not invertible within bound (cap 3)",
        {"degree": None, "degree_cap": 3, "exact": False})


def test_check_inverts_a_map_that_moves_the_origin(capsys, tmp_path):
    # F(0) = (1, -3): check finds the inverse that sigma certifies
    path = tmp_path / "shifted.map"
    path.write_text("vars: x y\nF1 = 2*x + y^2 + 1\nF2 = y - 3\n")
    assert _check_inverse(capsys, str(path)) == (
        "exact (degree 2)", {"degree": 2, "degree_cap": 2, "exact": True})
    code, out, err = run(capsys, "sigma", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["stats"]["route"] == "inverse"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_check_rejects_non_positive_degree_cap(capsys, tri2, cap):
    with pytest.raises(SystemExit) as exc:
        main(["check", tri2, f"--degree-cap={cap}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--degree-cap" in captured.err and "must be positive" in captured.err


@pytest.mark.parametrize("subverb, option", [
    ("scale", "r"), ("extend", "m"), ("conjugate", "matrix"), ("translate", "vector"),
    ("theoremB", "weights"),
])
def test_transform_without_its_option_is_a_clean_error(capsys, tri2, subverb, option):
    code, out, err = run(capsys, "transform", subverb, tri2)
    assert code == 1
    assert out == ""
    assert err == f"error: --{option} is required for transform {subverb}\n"


# x1, x_i + x_(i-1)^3 for n = 5: deg G = 81 is the default cap d^(n-1) and
# one above the default Groebner budget
CHAIN5 = ["x1"] + [f"x{i} + x{i - 1}^3" for i in range(2, 6)]


def _write_map(path, comps):
    names = " ".join(f"x{i}" for i in range(1, len(comps) + 1))
    path.write_text(f"vars: {names}\n" + "".join(
        f"F{i} = {c}\n" for i, c in enumerate(comps, start=1)))
    return str(path)


def test_check_chain_inverse_of_degree_81(capsys, tmp_path):
    path = _write_map(tmp_path / "chain5.map", CHAIN5)
    code, out, err = run(capsys, "check", path)
    assert code == 0
    assert out.strip().endswith("inverse: exact (degree 81)")


def test_sigma_certifies_the_chain_inverse_of_degree_81(capsys, tmp_path):
    # sigma's inverse route allows the degree that check's does
    path = _write_map(tmp_path / "chain5.map", CHAIN5)
    assert run(capsys, "sigma", path) == (0, "sigma = 1\n", "")


def test_sigma_eval_is_read_before_sigma_is_computed(capsys, tmp_path):
    # sigma of this cyclic map runs into the Groebner degree budget, which a
    # malformed --eval must not reach
    comps = ["x1 + x2^3", "x2 + x3^3", "x3 + x4^3", "x4 + x1^3"]
    path = _write_map(tmp_path / "cyclic4.map", comps)
    assert run(capsys, "sigma", path, "--eval", "1,0") == (
        1, "", "error: expected 'u1,...,un;v1,...,vn'\n")
    assert run(capsys, "sigma", path, "--eval=1,2,3,4;0,0,0,0") == (
        1, "", "error: direction must be nonzero\n")
    assert run(capsys, "sigma", path, "--eval=1,2;3,4") == (
        1, "", "error: point and direction must have 4 coordinates\n")


@pytest.mark.parametrize("cap", [None, 1, 2, 50])
def test_check_json_reports_the_degree_cap(capsys, tmp_path, cap):
    from kellerlab.expr_io import load_map_file
    from kellerlab.keller import default_degree_cap

    path = tmp_path / "tri3.map"
    path.write_text("vars: x y z\nF1 = x + y^3\nF2 = y + z^2\nF3 = z\n")
    option = [] if cap is None else [f"--degree-cap={cap}"]
    code, out, err = run(capsys, "check", str(path), *option, "--json")
    assert (code, err) == (0, "")
    expected = cap
    if cap is None:
        expected = default_degree_cap(load_map_file(str(path)).to_poly_map())
        assert expected == 9
    assert json.loads(out)["results"]["inverse"]["degree_cap"] == expected


def test_search_refuses_powers_past_the_bound(capsys, tmp_path, monkeypatch):
    import kellerlab.diophantine

    # `x^3000000 - y` at radius 2 would fill the memory with the powers of x;
    # the same check on x^30 - y with the bound lowered to 59 bits, below
    # 30 * bit_length(2) = 60
    path = tmp_path / "high.sys"
    path.write_text("vars: x y\nx^30 - y\n")
    monkeypatch.setattr(kellerlab.diophantine, "MAX_SEARCH_POWER_BITS", 59)
    assert run(capsys, "search", str(path), "--radius", "2") == (3, "", (
        "error: variable x has degree 30: its powers at box radius 2 take up to "
        "60 bits, past the bound of 59 bits\n"))
    monkeypatch.setattr(kellerlab.diophantine, "MAX_SEARCH_POWER_BITS", 60)
    code, out, _ = run(capsys, "search", str(path), "--radius", "2")
    assert code == 0 and {"-1 1", "0 0", "1 1"} <= set(out.splitlines())


def test_check_groebner_budget_exit_code(capsys, tmp_path, monkeypatch):
    import kellerlab.elim

    # a conjugate of (x + y^3, y): its graph basis needs new elements
    path = tmp_path / "conj.map"
    path.write_text("vars: x y\nF1 = x + (x - y)^3\nF2 = y + (x - y)^3\n")
    monkeypatch.setattr(kellerlab.elim, "MAX_BASIS", 2)
    code, out, err = run(capsys, "check", str(path))
    assert code == 3
    assert out == ""
    assert "basis size exceeds budget 2" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_answers_like_a_fresh_one(capsys, tri2, cfsys, monkeypatch):
    sequence = [
        ["check", tri2, "--degree-cap", "0"],
        ["search", cfsys, "--radius=1", "--budget=5", "--json"],
        ["search", cfsys, "--radius=1", "--json"],
        ["transform", "scale", tri2, "--r=2"],
        ["transform", "scale", tri2],
    ]

    def outcomes():
        results = []
        for argv in sequence:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes()
    monkeypatch.setattr("kellerlab.cli.build_parser", build_parser.__wrapped__)
    fresh = outcomes()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 3, 0, 0, 1]
    assert shared[4][2] == "error: --r is required for transform scale\n"


@pytest.mark.parametrize("verb", [["transform", "extend", "--m=1"], ["curve", "--kind=cf"]])
def test_output_to_unwritable_path_is_a_domain_error(capsys, tri2, tmp_path, verb):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *verb, tri2, f"--output={target}")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["check", "{path}"], ["transform", "cor1", "{path}"], ["search", "{path}", "--radius=1"],
])
def test_non_utf8_input_names_the_file(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"vars: x\n\xff\n")
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("verb", [["transform", "scale", "--r=2"], ["curve", "--kind=cf"]])
def test_output_is_written_under_json(capsys, tri2, tmp_path, verb):
    # the file gets the text form, stdout the JSON report
    plain, with_json = tmp_path / "plain.txt", tmp_path / "json.txt"
    code, out, _ = run(capsys, *verb, tri2, f"--output={plain}")
    assert (code, out) == (0, "")
    code, out, err = run(capsys, *verb, tri2, f"--output={with_json}", "--json")
    assert code == 0
    assert json.loads(out)["verb"].startswith(verb[0])
    assert with_json.read_text() == plain.read_text()

    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *verb, tri2, f"--output={target}", "--json")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a file of the test's own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_is_a_clean_exit(capsys, tri2, tmp_path, monkeypatch):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["transform", "scale", tri2, "--r=2", "--json"])
        assert code == 1
        assert capsys.readouterr().err == ""
        # the descriptor now points at the null device, so a flush at exit
        # cannot raise again
        os.write(fd, b"late output")
        assert path.read_bytes() == b""
    finally:
        os.close(fd)


@pytest.mark.parametrize("argv, option", [
    (["transform", "extend", "{map}", "--m=-1"], "--m"),
    (["curve", "{map}", "--kind=cfm", "--m=-1"], "--m"),
    (["hurwitz", "--d=0", "--branches=1"], "--d"),
    (["hurwitz", "--d=-2", "--branches=1"], "--d"),
])
def test_bad_counts_are_usage_errors(capsys, tri2, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(map=tri2) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be" in captured.err


@pytest.mark.parametrize("argv", [
    ["transform", "scale", "{map}", "--r=1e400"],
    ["transform", "translate", "{map}", "--vector=1e3,0"],
])
def test_rational_options_refuse_exponent_notation(capsys, tri2, argv):
    # a rational option reads a sign, digits and an optional /digits only:
    # Fraction("1e10000000") alone takes seconds to build, and nothing else
    # bounds the size of an exponent literal
    code, out, err = run(capsys, *[arg.format(map=tri2) for arg in argv])
    assert (code, out) == (1, "")
    assert "bad rational literal" in err


def test_coefficients_past_the_int_str_limit(capsys, tmp_path):
    # the coefficient r^2 has 4400 digits: past the 4300 that int() and str()
    # accept by default
    from kellerlab import transforms
    from kellerlab.expr_io import load_map_file
    from kellerlab.keller import as_cubic_linear

    src, target = tmp_path / "t3.map", tmp_path / "big.map"
    src.write_text(bundled_text("triangular_3.map"))
    code, out, err = run(capsys, "transform", "scale", str(src), "--r=" + "7" * 2200,
                         f"--output={target}")
    assert (code, out, err) == (0, "", "")
    F = load_map_file(src).to_poly_map()
    r = (10**2200 - 1) // 9 * 7
    assert load_map_file(target).to_poly_map() == transforms.scale_conjugate(F, r)
    code, out, err = run(capsys, "check", str(target))
    assert (code, err) == (0, "")
    assert out.startswith("keller: yes, ") and out.endswith("inverse: exact (degree 9)\n")

    code, out, err = run(capsys, "transform", "theoremB", str(src),
                         "--weights=1" + "0" * 700 + ",1,1", f"--output={target}")
    assert (code, out, err) == (0, "", "")
    form = transforms.DiagonalTransform((10**700, 1, 1))
    G = transforms.theoremB_diagonal(as_cubic_linear(F), form).to_map(F.variables)
    assert load_map_file(target).to_poly_map() == G
    assert max(len(line) for line in target.read_text().splitlines()) > 4300


def _envelope_digest(*reprs: str) -> str:
    """The `inputs.digest` of a verb whose input chunks repr to `reprs`."""
    return hashlib.sha256(b"".join(r.encode() + b"\x00" for r in reprs)).hexdigest()[:16]


def _load_big_json(text: str):
    def parse(digits):
        return -parse_int(digits[1:]) if digits.startswith("-") else parse_int(digits)

    return json.loads(text, parse_int=parse)


def test_sl_complete_json_past_the_int_str_limit(capsys):
    # 10^5000 has 5001 digits, past the 4300 that repr() and json.dumps accept
    big = "1" + "0" * 5000
    code, out, err = run(capsys, "sl-complete", f"--vector={big},1", "--json")
    assert (code, err) == (0, "")
    doc = _load_big_json(out)
    rows = lattice.sl_complete((10**5000, 1)).rows
    assert doc["results"] == {"matrix": [list(r) for r in rows]}
    assert doc["inputs"]["digest"] == _envelope_digest(f"({big}, 1)")
    assert big in out


def test_sl_map_json_past_the_int_str_limit(capsys):
    big = "1" + "0" * 5000
    code, out, err = run(capsys, "sl-map", f"--from={big},1", "--to=1,0", "--json")
    assert (code, err) == (0, "")
    doc = _load_big_json(out)
    rows = lattice.map_primitive_pair((10**5000, 1), (1, 0)).rows
    assert doc["results"] == {"matrix": [list(r) for r in rows]}
    assert doc["inputs"]["digest"] == _envelope_digest(f"({big}, 1)", "(1, 0)")


def test_sl_json_of_ordinary_ints_is_unchanged(capsys):
    # the same bytes as json.dumps and repr give for ints within their limit
    code, out, err = run(capsys, "sl-complete", "--vector=2,3,-5", "--json")
    assert (code, err) == (0, "")
    rows = [list(r) for r in lattice.sl_complete((2, 3, -5)).rows]
    doc = {"verb": "sl-complete",
           "inputs": {"digest": _envelope_digest(repr((2, 3, -5)))},
           "results": {"matrix": rows}}
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def _readme_examples():
    """(command line, expected output) of each `$ kellerlab ...` block in README.md."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ kellerlab "):
            out = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith(("$ ", "```")):
                    break
                out.append(follow + "\n")
            examples.append((line[len("$ kellerlab "):], "".join(out)))
    return examples


def test_readme_has_examples():
    assert len(_readme_examples()) >= 2


@pytest.mark.parametrize("command, expected", _readme_examples())
def test_readme_example_output(capsys, monkeypatch, command, expected):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, verb", [
    (["check", "{map}"], "check"),
    (["bifurcation", "{map}"], "bifurcation"),
    (["sigma", "{map}", "--eval=1,0;0,1"], "sigma"),
    (["transform", "scale", "{map}", "--r=2"], "transform scale"),
    (["transform", "extend", "{map}", "--m=1"], "transform extend"),
    (["transform", "conjugate", "{map}", "--matrix=1,1;0,1"], "transform conjugate"),
    (["transform", "translate", "{map}", "--vector=1,2"], "transform translate"),
    (["transform", "theoremB", "{map}", "--weights=1,2"], "transform theoremB"),
    (["transform", "cor1", "{map}"], "transform cor1"),
    (["sl-complete", "--vector=2,3,5"], "sl-complete"),
    (["sl-map", "--from=2,3,5", "--to=0,1,1"], "sl-map"),
    (["curve", "{map}", "--kind=cfm", "--m=1"], "curve"),
    (["search", "{sys}", "--radius=3"], "search"),
    (["hurwitz", "--d=2", "--branches=2,2"], "hurwitz"),
])
def test_json_envelope(capsys, tri2, cfsys, argv, verb):
    code, out, err = run(capsys, *(a.format(map=tri2, sys=cfsys) for a in argv), "--json")
    assert (code, err) == (0, "")
    assert out.endswith("}\n") and out.count("\n") == 1
    doc = json.loads(out)
    # search adds its work counters, and sigma its route, beside the
    # deterministic results
    stats = ["stats"] if verb in ("search", "sigma") else []
    assert sorted(doc) == ["inputs", "results", *stats, "verb"]
    assert doc["verb"] == verb
    assert sorted(doc["inputs"]) == ["digest"] and len(doc["inputs"]["digest"]) == 16
    assert isinstance(doc["results"], dict) and doc["results"]
    if verb == "search":
        assert sorted(doc["stats"]) == ["extractions", "memo_entries", "sieved"]
        assert all(type(v) is int and v >= 0 for v in doc["stats"].values())
    if verb == "sigma":
        assert doc["stats"] == {"route": "inverse"}


@pytest.mark.parametrize("subverb, values", [
    ("scale", ("--r=2", "--r=3")),
    ("extend", ("--m=1", "--m=2")),
    ("conjugate", ("--matrix=1,1;0,1", "--matrix=1,2;0,1")),
    ("translate", ("--vector=1,2", "--vector=1,3")),
    ("theoremB", ("--weights=1,2", "--weights=1,3")),
])
def test_transform_digest_covers_the_option(capsys, tri2, subverb, values):
    def digest(value):
        code, out, err = run(capsys, "transform", subverb, tri2, value, "--json")
        assert (code, err) == (0, "")
        return json.loads(out)["inputs"]["digest"]

    first, second = values
    assert digest(first) == digest(first)
    assert digest(first) != digest(second)


def test_benchmark_tracer_fits_the_package(capsys, tmp_path):
    # bench/tracing.py wraps functions by name and reads Ideal.generators; a
    # refactor that renames either would otherwise surface only in a traced
    # benchmark run.  The verbs' eliminations read the packed basis and do
    # not call `groebner`, so the tracer meets `groebner` at a direct call.
    # (x^2, xy) is not birational (d_F = 2), so bifurcation samples a fiber.
    import importlib.util

    import kellerlab
    from kellerlab.elim import Ideal, TermOrder
    from kellerlab.expr_io import parse_polynomial

    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(kellerlab)
    ring = ("x", "y")
    ideal = Ideal(tuple(parse_polynomial(g, ring) for g in ("x^2 - y", "y^2 - x")))
    path = tmp_path / "double.map"
    path.write_text("vars: x y\nF1 = x^2\nF2 = x*y\n")
    try:
        tracer.install()
        for i, verb in enumerate(("bifurcation", "sigma")):
            tracer.job = (i, verb)
            assert kellerlab.cli.main([verb, str(path)]) == 0
        tracer.job = (2, "groebner")
        kellerlab.elim.groebner(ideal, TermOrder.lex(ring))
    finally:
        tracer.uninstall()
    assert kellerlab.cli.main is main
    assert {"d_F = 2", "H = Y1", "sigma = V1"} <= set(capsys.readouterr().out.splitlines())
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "fibers.bifurcation_data", "elim.generic_fiber_degree",
            "elim.groebner", "elim.resultant", "fibers.poly_D"} <= names
    assert tracer.agg["elim.groebner"]["basis_out"] > 0
