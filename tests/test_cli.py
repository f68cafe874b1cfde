import json

import pytest

from kellerlab.bundled import bundled_text
from kellerlab.cli import main

MAPS = "src/kellerlab/data"


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


def test_sigma_eval_usage_error(capsys, bif):
    code, out, err = run(capsys, "sigma", bif, "--eval", "1,0")
    assert code == 1
    assert "error" in err


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


def test_transform_theoremB_rejects_non_cubic_linear(capsys, bif):
    code, out, err = run(capsys, "transform", "theoremB", "--weights", "1,1", bif)
    assert code == 1
    assert "not cubic-linear" in err


def test_transform_output_file(capsys, tri2, tmp_path):
    target = tmp_path / "out.map"
    code, out, _ = run(capsys, "transform", "extend", "--m", "1", tri2,
                       "--output", str(target))
    assert code == 0
    assert "vars: x1 x2 z1" in target.read_text()


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


def test_check_degree_cap_below_inverse_degree(capsys, tri2):
    code, out, err = run(capsys, "check", tri2, "--degree-cap", "2")
    assert code == 0
    assert out.strip().endswith("inverse: not invertible within bound (cap 2)")


def test_check_chain_inverse_of_degree_81(capsys, tmp_path):
    # deg G = 81 is the default cap and one above the default Groebner budget
    path = tmp_path / "chain5.map"
    comps = ["x1"] + [f"x{i} + x{i - 1}^3" for i in range(2, 6)]
    path.write_text("vars: x1 x2 x3 x4 x5\n" + "".join(
        f"F{i} = {c}\n" for i, c in enumerate(comps, start=1)))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert out.strip().endswith("inverse: exact (degree 81)")


def test_check_groebner_budget_exit_code(capsys, tmp_path, monkeypatch):
    import kellerlab.keller
    from kellerlab.elim import GroebnerBudget

    # a conjugate of (x + y^3, y): its graph basis needs new elements
    path = tmp_path / "conj.map"
    path.write_text("vars: x y\nF1 = x + (x - y)^3\nF2 = y + (x - y)^3\n")
    monkeypatch.setattr(kellerlab.keller, "DEFAULT_BUDGET", GroebnerBudget(max_basis=2))
    code, out, err = run(capsys, "check", str(path))
    assert code == 3
    assert out == ""
    assert "basis size exceeds budget 2" in err
