"""Command-line interface: subcommands, exit codes, file formats."""

import json

import pytest

from redform import cli, diffsys, reduction
from redform.cli import main
from redform.diffsys import LinearDiffSystem
from redform.linalg import Mat


DIHEDRAL = {"var": "x", "matrix": [["0", "1"], ["x", "1/(2*x)"]]}
IDENTITY2 = {"var": "x", "matrix": [["1", "0"], ["0", "1"]]}
IDENTITY3 = {"var": "x", "matrix": [["1", "0", "0"], ["0", "1", "0"],
                                    ["0", "0", "1"]]}
SINGULAR2 = {"var": "x", "matrix": [["x", "x"], ["x", "x"]]}


@pytest.fixture
def sys_file(tmp_path):
    p = tmp_path / "dihedral.json"
    p.write_text(json.dumps(DIHEDRAL))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ratsols_dihedral(sys_file, capsys):
    code, out, _ = run(capsys, "ratsols", "--construction", "sym(2,id)",
                       sys_file)
    assert code == 0
    report = json.loads(out)
    assert report["solutions"][0]["basis"] == [["1", "0", "-x"]]


def test_gauge_identity_is_noop(sys_file, tmp_path, capsys):
    p = tmp_path / "ident.json"
    p.write_text(json.dumps(IDENTITY2))
    code, out, _ = run(capsys, "gauge", "--p", str(p), sys_file)
    assert code == 0
    gauged = LinearDiffSystem.from_json(out)
    assert gauged == LinearDiffSystem.from_json_dict(DIHEDRAL)


def test_gauge_singular_reports_determinant(sys_file, tmp_path, capsys):
    p = tmp_path / "sing.json"
    p.write_text(json.dumps({"var": "x",
                             "matrix": [["x", "x"], ["x", "x"]]}))
    code, _, err = run(capsys, "gauge", "--p", str(p), sys_file)
    assert code == 2
    assert "singular" in err and "det" in err


def test_verify_reduction_singular_reports_determinant(sys_file, tmp_path,
                                                        capsys):
    p = tmp_path / "sing.json"
    p.write_text(json.dumps(SINGULAR2))
    code, _, err = run(capsys, "verify-reduction", "--p", str(p), sys_file)
    assert code == 2
    assert "singular" in err and "det" in err


def test_gauge_matrix_determinant_not_computed(sys_file, tmp_path, capsys,
                                               monkeypatch):
    ident, sing = tmp_path / "ident.json", tmp_path / "sing.json"
    ident.write_text(json.dumps(IDENTITY2))
    sing.write_text(json.dumps(SINGULAR2))
    calls = []
    det = Mat.det

    def counted(self):
        calls.append(self)
        return det(self)
    monkeypatch.setattr(Mat, "det", counted)
    assert run(capsys, "gauge", "--p", str(ident), sys_file)[0] == 0
    assert run(capsys, "gauge", "--p", str(sing), sys_file)[0] == 2
    assert run(capsys, "verify-reduction", "--p", str(sing), sys_file)[0] == 2
    assert calls == []
    # the solver's own determinants are over Q(i)(m), never the gauge matrix
    assert run(capsys, "verify-reduction", "--p", str(ident), sys_file)[0] == 0
    P = LinearDiffSystem.from_json_dict(IDENTITY2).matrix
    assert all(m != P for m in calls)


@pytest.mark.parametrize("subcommand", ["gauge", "verify-reduction"])
def test_mis_shaped_gauge_matrix_is_input_error(subcommand, sys_file, tmp_path,
                                                capsys):
    p = tmp_path / "ident3.json"
    p.write_text(json.dumps(IDENTITY3))
    code, out, err = run(capsys, subcommand, "--p", str(p), sys_file)
    assert code == 2
    assert out == "" and "3x3 matrix for a 2x2 system" in err


def test_roundtrip_of_emitted_systems(sys_file, capsys):
    code, out, _ = run(capsys, "subst", "--subst", "2", sys_file)
    assert code == 0
    emitted = LinearDiffSystem.from_json(out)
    assert emitted.to_json_dict() == json.loads(out)


def test_wei_norman_report(sys_file, capsys):
    code, out, _ = run(capsys, "wei-norman", sys_file)
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 3
    assert len(report["mats"]) == 3


def test_construct_report(sys_file, capsys):
    code, out, _ = run(capsys, "construct", "--construction", "ext(2,id)",
                       sys_file)
    assert code == 0
    report = json.loads(out)
    entry = report["constructions"][0]
    assert entry["algebra"] == [["1/2/x"]]
    assert entry["group"] == [["-x"]]


def test_series_report(sys_file, capsys):
    code, out, _ = run(capsys, "series", "--z0", "1", "--order", "3", sys_file)
    assert code == 0
    report = json.loads(out)
    assert report["coeffs"][0] == [["1", "0"], ["0", "1"]]
    assert report["order"] == 3


def test_series_negative_order_is_input_error(sys_file, capsys):
    code, out, err = run(capsys, "series", "--order", "-1", sys_file)
    assert code == 2
    assert out == "" and "order" in err


def test_check_reduced_exit_codes(sys_file, capsys):
    code, out, _ = run(capsys, "check-reduced", "--construction", "sym(2,id)",
                       sys_file)
    assert code == 0
    assert json.loads(out)["verdict"] is False
    code, _, _ = run(capsys, "check-reduced", "--construction", "sym(2,id)",
                     "--expect-reduced", sys_file)
    assert code == 1


def test_check_reduced_on_reduced_system(tmp_path, capsys):
    p = tmp_path / "rot.json"
    p.write_text(json.dumps({"var": "x",
                             "matrix": [["0", "x"], ["-x", "0"]]}))
    code, out, _ = run(capsys, "check-reduced", "--construction", "sym(2,id)",
                       "--expect-reduced", str(p))
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_export_s(sys_file, tmp_path, capsys):
    out_path = tmp_path / "system.txt"
    code, _, _ = run(capsys, "export-s", sys_file,
                     "--construction", "sym(2,id)",
                     "--construction", "sym(2,ext(2,id))",
                     "--z0", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 5
    meta = json.loads((tmp_path / "system.txt.meta.json").read_text())
    assert meta["unknowns"] == ["p_1_1", "p_1_2", "p_2_1", "p_2_2", "w"]


def test_verify_reduction_cli(tmp_path, capsys):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"var": "t",
                               "matrix": [["0", "2*t"], ["2*t^3", "1/t"]]}))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"var": "t",
                                 "matrix": [["0", "i"], ["i*t", "0"]]}))
    code, out, _ = run(capsys, "verify-reduction", "--p", str(pfile),
                       "--construction", "sym(2,id)", "--expect-reduced",
                       str(sub))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["gauged"]["matrix"] == [["0", "2*t^2"], ["2*t^2", "0"]]


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "ratsols", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_parse_error_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"var": "x", "matrix": [["1+"]]}))
    code, _, err = run(capsys, "ratsols", str(p))
    assert code == 2
    assert "line" in err and "column" in err


def test_variable_named_i_is_input_error(tmp_path, capsys):
    # "i" is the imaginary unit in expressions, so it cannot be the variable
    p = tmp_path / "var_i.json"
    p.write_text(json.dumps({"var": "i",
                             "matrix": [["0", "1"], ["i", "1/(2*i)"]]}))
    code, out, err = run(capsys, "wei-norman", str(p))
    assert code == 2
    assert out == "" and "imaginary unit" in err


def test_bad_construction_dsl(sys_file, capsys):
    code, _, err = run(capsys, "ratsols", "--construction", "sym(0,id)",
                       sys_file)
    assert code == 2


@pytest.mark.parametrize("construction", ["sym(12,sym(3,id))",
                                          "sym(1000000000,sym(1000000000,id))"])
@pytest.mark.parametrize("subcommand", ["ratsols", "check-reduced"])
def test_oversized_construction_is_input_error(tmp_path, capsys, monkeypatch,
                                               subcommand, construction):
    # the size check must refuse before anything is constructed
    def refuse(*args):
        raise AssertionError("construction applied before the size check")

    monkeypatch.setattr(cli, "apply_algebra", refuse)
    monkeypatch.setattr(reduction, "apply_algebra", refuse)
    p = tmp_path / "id3.json"
    p.write_text(json.dumps(IDENTITY3))
    code, _, err = run(capsys, subcommand, "--construction", construction,
                       str(p))
    assert code == 2
    assert f"above the limit {cli.MAX_CONSTRUCTION_DIM}" in err


LIMIT = cli.MAX_SYSTEM_SIZE
DEGREE = cli.MAX_ENTRY_DEGREE


@pytest.mark.parametrize("matrix,limit", [
    ([["0"] * (LIMIT + 1)] * (LIMIT + 1), LIMIT),
    ([["0", "1"]] * 2 + [["0"] * (LIMIT + 1)], LIMIT),
    ([["0", "1"], [f"x^{DEGREE + 1}", "0"]], DEGREE),
    ([["0", "1"], [f"(x^{DEGREE // 4})^5", "0"]], DEGREE),
    ([["0", "1"], [f"1/(x^{DEGREE}*x-1)", "0"]], DEGREE),
    ([["0", "1"], ["x^1000000000000", "0"]], DEGREE)])
@pytest.mark.parametrize("subcommand", ["wei-norman", "check-reduced"])
def test_oversized_system_is_input_error(tmp_path, capsys, monkeypatch,
                                         subcommand, matrix, limit):
    # the limits must refuse before any entry is evaluated
    def refuse(*args):
        raise AssertionError("entry evaluated before the limit checks")

    monkeypatch.setattr(diffsys, "parse_ratfunc", refuse)
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"var": "x", "matrix": matrix}))
    code, out, err = run(capsys, subcommand, str(p))
    assert code == 2
    assert out == "" and f"above the limit {limit}" in err


def test_system_at_the_limits_is_accepted(tmp_path, capsys):
    p = tmp_path / "edge.json"
    zeros = [["0"] * LIMIT for _ in range(LIMIT)]
    zeros[0][0] = f"(x^{DEGREE}-1)/(x^{DEGREE // 2}*x^{DEGREE // 2}+2)"
    p.write_text(json.dumps({"var": "x", "matrix": zeros}))
    code, _, _ = run(capsys, "wei-norman", str(p))
    assert code == 0


@pytest.mark.parametrize("argv,limit", [
    (["series", "--order", str(cli.MAX_SERIES_ORDER + 1)], cli.MAX_SERIES_ORDER),
    (["series", "--order", "1000000000000"], cli.MAX_SERIES_ORDER),
    (["subst", "--subst", str(DEGREE + 1)], DEGREE),
    (["subst", "--subst", "1000000000000"], DEGREE)])
def test_oversized_order_or_exponent_is_input_error(sys_file, capsys,
                                                    monkeypatch, argv, limit):
    # refused before the system is even read
    def refuse(*args):
        raise AssertionError("work started before the limit check")

    for name in ("_load_system", "series_solution", "substitute_power"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *argv, sys_file)
    assert code == 2
    assert out == "" and f"above the limit {limit}" in err


def test_gaussian_z0(sys_file, tmp_path, capsys):
    code, out, _ = run(capsys, "series", "--z0", "1+i", "--order", "2",
                       sys_file)
    assert code == 0
    assert json.loads(out)["z0"] == "(1+i)"
    out_path = tmp_path / "system.txt"
    code, _, _ = run(capsys, "export-s", sys_file, "--z0", "1+i",
                     "--out", str(out_path))
    assert code == 0
    code, _, err = run(capsys, "series", "--z0", "x", sys_file)
    assert code == 2 and "not a constant" in err


def test_internal_error_exit_code(sys_file, capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("solver produced a non-solution")
    monkeypatch.setattr("redform.cli.rational_solutions", broken)
    code, out, err = run(capsys, "ratsols", sys_file)
    assert code == 3
    assert out == "" and "internal error" in err


def test_example_dihedral_matches_golden(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["example", "dihedral", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["example", "dihedral", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_example_so3_matches_golden(capsys):
    code, out, _ = run(capsys, "example", "so3")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["certificate"]["invariants"] == [["1", "0", "0", "1",
                                                    "0", "1"]]


def test_example_unknown_name(capsys):
    assert main(["example", "nope"]) == 2
