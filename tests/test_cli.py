import json
import os
import subprocess
import sys

import skeinlab
from skeinlab.cli import main
from skeinlab.coeffs import GenericQ
from skeinlab.torus import TorusSkein


def write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def test_bracket_unknot(tmp_path, capsys):
    path = write(tmp_path / "unknot.json", {"surface": "disk", "crossings": [], "free_loops": 1})
    assert main(["bracket", path, "--field", "q"]) == 0
    out = capsys.readouterr().out
    assert "-q^2 - q^-2" in out


def test_bracket_annulus_at_zeta(tmp_path, capsys):
    path = write(
        tmp_path / "core.json",
        {"surface": "annulus", "crossings": [], "free_cores": 1},
    )
    assert main(["bracket", path, "--field", "zeta:5"]) == 0


def test_bracket_malformed_input(tmp_path):
    path = write(tmp_path / "bad.json", {"surface": "disk", "crossings": [[1, 2, 3, 4]]})
    assert main(["bracket", path]) == 2


def test_thread_cli(tmp_path, capsys):
    F = GenericQ()
    skein = {"field": "generic", "terms": [[1, {"num": {"terms": [[0, "1"]]}}]]}
    path = write(tmp_path / "z.json", skein)
    out_path = str(tmp_path / "threaded.json")
    assert main(["thread", "--m", "3", "--input", path, "--out", out_path]) == 0
    with open(out_path) as fh:
        data = json.load(fh)
    assert [t[0] for t in data["terms"]] == [1, 3]  # z^3 - 3z
    assert os.path.exists(out_path + ".manifest.json")


def test_torus_mul_cli(tmp_path, capsys):
    a = TorusSkein.curve(GenericQ(), 1, 0).to_json()
    b = TorusSkein.curve(GenericQ(), 0, 1).to_json()
    pa, pb = write(tmp_path / "a.json", a), write(tmp_path / "b.json", b)
    assert main(["torus", "mul", "--a", pa, "--b", pb]) == 0
    out = capsys.readouterr().out
    assert "(1,1)" in out and "(1,-1)" in out


def test_torus_center_check_cli(tmp_path, capsys):
    el = TorusSkein.curve(GenericQ(), 1, 0).to_json()
    pa = write(tmp_path / "el.json", el)
    assert main(["torus", "center-check", "--a", pa, "--bound", "2"]) == 0
    assert "not central" in capsys.readouterr().out


ZETA5_TERMS = [[1, 0, {"n": 5, "coeffs": ["1", "-2/3"]}]]


def test_torus_field_comes_from_the_file(tmp_path, capsys):
    # a zeta:5 file needs no --n; --n only checks the tag and names both
    # fields when they differ
    pa = write(tmp_path / "a.json", {"field": "zeta:5", "terms": ZETA5_TERMS})
    pb = write(tmp_path / "b.json", {"field": "zeta:5", "terms": [[0, 1, {"n": 5, "coeffs": ["0", "0", "2"]}]]})
    assert main(["torus", "mul", "--a", pa, "--b", pb]) == 0
    unchecked = capsys.readouterr()
    assert main(["torus", "mul", "--n", "5", "--a", pa, "--b", pb]) == 0
    assert capsys.readouterr() == unchecked and "(1,1)" in unchecked.out
    assert main(["torus", "mul", "--n", "3", "--a", pa, "--b", pb]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "zeta:5" in captured.err and "zeta:3" in captured.err


def test_torus_field_tag_is_checked_before_the_scalars(tmp_path, capsys):
    # zeta:5 scalars in a file tagged generic: --n 5 names both fields, and
    # without --n the generic reader reports the missing key as malformed input
    path = write(tmp_path / "generic.json", {"field": "generic", "terms": ZETA5_TERMS})
    assert main(["torus", "center-check", "--n", "5", "--a", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "generic" in captured.err and "zeta:5" in captured.err
    assert main(["torus", "center-check", "--a", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: malformed input {path}:")


def test_lens_cli_s3(tmp_path, capsys):
    out_path = str(tmp_path / "s3.json")
    assert main(["lens", "--p", "1", "--q", "0", "--field", "generic", "--out", out_path]) == 0
    with open(out_path) as fh:
        report = json.load(fh)
    assert report["dimension"] == 1 and report["stabilized"] is True


def test_lens_cli_negative_q(tmp_path, capsys):
    # L(3,-1) is L(3,1) with the orientation reversed: the same dimension
    out_path = str(tmp_path / "l3m1.json")
    assert main(["lens", "--p", "3", "--q", "-1", "--out", out_path]) == 0
    with open(out_path) as fh:
        assert json.load(fh)["dimension"] == 2
    # the gcd check is not an assert, so python -O keeps it
    src = os.path.dirname(os.path.dirname(skeinlab.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "skeinlab.cli", "lens", "--p", "3", "--q", "-1"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout[done.stdout.index("{"):])["dimension"] == 2


def test_lens_cli_refuses_a_field_without_q(capsys):
    # every action scalar is a power of q, so a field without q cannot run it
    assert main(["lens", "--p", "3", "--q", "1", "--field", "rationals"]) == 2
    err = capsys.readouterr().err
    assert "no value for q" in err and "Traceback" not in err


def test_cli_refuses_a_field_tag_whose_q_is_not_a_number(tmp_path, capsys):
    diagram = write(tmp_path / "unknot.json", {"surface": "disk", "crossings": [], "free_loops": 1})
    for tag in ("rationals(q=1/0)", "rationals(q=one)"):
        for argv in (["lens", "--p", "3", "--q", "1"], ["bracket", diagram]):
            assert main([*argv, "--field", tag]) == 2, (tag, argv)
            captured = capsys.readouterr()
            assert captured.out == "" and tag in captured.err and "Traceback" not in captured.err, (tag, argv)


def test_lens_cli_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    main(["lens", "--p", "2", "--q", "1", "--out", out1])
    main(["lens", "--p", "2", "--q", "1", "--out", out2])
    assert open(out1).read() == open(out2).read()


def test_lens_cli_unstable_exit_code(capsys):
    # truncation 0 is too small for L(7,1): not stabilized -> exit 3
    code = main(["lens", "--p", "7", "--q", "1", "--truncation", "0"])
    report = capsys.readouterr().out
    assert code == 3
    assert "NOT STABLE" in report


def test_charring_cli(tmp_path, capsys):
    pres = tmp_path / "poincare.txt"
    pres.write_text("gens: a b\nrel: ababAAA\nrel: aaaBBBBB\n")
    out_path = str(tmp_path / "ring.json")
    assert main(["charring", str(pres), "--out", out_path]) == 0
    with open(out_path) as fh:
        data = json.load(fh)
    assert data["total_dim"] == 3


def test_groebner_and_decompose_cli(tmp_path, capsys):
    ideal = {
        "vars": ["x"],
        "gens": [{"terms": [[[0], "-1"], [[2], "1"]]}],  # x^2 - 1
    }
    path = write(tmp_path / "ideal.json", ideal)
    assert main(["groebner", path]) == 0
    assert "dimension = 2" in capsys.readouterr().out
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert out.count("LocalFactor") == 2


def test_decompose_rejects_positive_dimensional(tmp_path):
    ideal = {"vars": ["x", "y"], "gens": [{"terms": [[[1, 0], "1"], [[0, 1], "-1"]]}]}
    path = write(tmp_path / "line.json", ideal)
    assert main(["decompose", path]) == 2


def test_verify_cli(tmp_path, capsys):
    out_path = str(tmp_path / "lr.json")
    assert main(["verify", "cor-lr", "--seeds", "5", "--out", out_path]) == 0
    with open(out_path) as fh:
        rows = json.load(fh)
    assert len(rows) == 5 and all(r["equal"] for r in rows)
    # no seeds would be a vacuous pass; --dimA 0 used to run algebras of
    # dimension >= 1 and record 0, and --n 0 ended in an error from randrange
    for flag in ("--seeds", "--dimA", "--n"):
        for value in ("0", "-2"):
            assert main(["verify", "cor-lr", "--seeds", "1", flag, value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag in err


def test_missing_file_is_bad_input():
    assert main(["bracket", "/nonexistent/diagram.json"]) == 2


def test_lens_negative_truncation_is_bad_input(capsys):
    # windows below 0 are empty, so a report would read dim=0, stable
    assert main(["lens", "--p", "3", "--q", "1", "--truncation", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_json_of_wrong_shape_is_bad_input(tmp_path, capsys):
    skein = write(tmp_path / "skein.json", {"field": "generic", "terms": 5})
    ideal = write(tmp_path / "ideal.json", [1, 2])
    # zero denominators: a rational coefficient, a generic-q denominator
    annulus = write(tmp_path / "annulus.json", {"field": "rationals", "terms": [[0, "1/0"]]})
    ideal_zero = write(tmp_path / "ideal0.json", {"vars": ["x"], "gens": [{"terms": [[[1], "1/0"]]}]})
    torus_zero = write(
        tmp_path / "torus0.json",
        {"field": "generic", "terms": [[1, 0, {"num": {"terms": [[0, "1"]]}, "den": {"terms": []}}]]},
    )
    # numbers that are not what they claim: JSON floats as rationals (0.1 is
    # a binary fraction), non-integers and booleans as keys or counts
    one = {"num": {"terms": [[0, "1"]]}}
    wrong_numbers = {
        "float_scalar": {"field": "rationals", "terms": [[1, 0.1]]},
        "bool_scalar": {"field": "rationals", "terms": [[1, True]]},
        "core_power": {"field": "rationals", "terms": [[1.5, "1"]]},
        "laurent_exponent": {"field": "generic", "terms": [[0, {"num": {"terms": [[0.5, "1"]]}}]]},
        "cyclotomic_order": {"field": "zeta:5", "terms": [[0, {"n": 5.0, "coeffs": ["1"]}]]},
        "cyclotomic_field": {"field": "zeta:5", "terms": [[0, {"n": 3, "coeffs": ["1"]}]]},
        "short_term": {"field": "rationals", "terms": [[]]},
    }
    wrong_labels = {
        "bool_label": {"field": "generic", "terms": [[True, 0, one]]},
        "float_label": {"field": "generic", "terms": [[1.5, 0, one]]},
        "short_label": {"field": "generic", "terms": [[1, one]]},
    }
    wrong_diagrams = {
        "free_loops": {"surface": "disk", "free_loops": 1.7},
        "free_cores": {"surface": "annulus", "free_cores": 1.5},
        "arc": {"surface": "disk", "crossings": [[1, 1, 2.5, 2.5]]},
        "winding_mark": {"surface": "annulus", "crossings": [[1, 1, 2, 2]], "winding_marks": {"1": 0.5}},
    }
    float_ideal = write(tmp_path / "ideal_float.json", {"vars": ["x"], "gens": [{"terms": [[[1], 0.1]]}]})
    cases = [
        ["torus", "mul", "--a", skein, "--b", skein],
        ["torus", "center-check", "--a", skein],
        ["decompose", ideal],
        ["thread", "--m", "2", "--input", annulus],
        ["groebner", ideal_zero],
        ["torus", "center-check", "--a", torus_zero],
        ["groebner", float_ideal],
    ]
    for name, data in wrong_numbers.items():
        cases.append(["thread", "--m", "2", "--input", write(tmp_path / f"{name}.json", data)])
    for name, data in wrong_labels.items():
        cases.append(["torus", "center-check", "--a", write(tmp_path / f"{name}.json", data)])
    for name, data in wrong_diagrams.items():
        cases.append(["bracket", write(tmp_path / f"{name}.json", data)])
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv


def test_malformed_ideals_are_bad_input(tmp_path, capsys):
    # each of these used to exit 0: x^-1 as the unit ideal ("dimension 0"),
    # x^1.5 - 4 as x - 4, a repeated or an empty variable list, or a name
    # that is not a non-empty string, as an infinite quotient
    ideals = {
        "negative": {"vars": ["x"], "gens": [{"terms": [[[-1], "1"]]}]},
        "fractional": {"vars": ["x"], "gens": [{"terms": [[[1.5], "1"], [[0], "-4"]]}]},
        "repeated": {"vars": ["x", "x"], "gens": [{"terms": [[[2, 0], "1"], [[0, 0], "-1"]]}]},
        "empty": {"vars": [], "gens": []},
        "not a name": {"vars": [1], "gens": []},
        "empty name": {"vars": ["x", ""], "gens": []},
    }
    for name, ideal in ideals.items():
        path = write(tmp_path / f"{name}.json", ideal)
        for command in ("groebner", "decompose"):
            assert main([command, path]) == 2, (name, command)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:"), (name, command)
