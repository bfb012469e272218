import json
import os

from stjac.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_with_oracle(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "additive", "--d", "9", "--c", "1",
        "--p", "19", "--oracle",
    )
    assert code == 0
    assert "count=12" in out
    assert "oracle=12" in out
    assert "ok" in out


def test_count_empty_branch(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "linear", "--d", "7", "--c", "1", "--p", "7"
    )
    assert code == 0
    assert "count=8" in out


def test_count_rejects_even_linear_degree(capsys):
    code, _, err = run(
        capsys, "count", "--family", "linear", "--d", "8", "--c", "1", "--p", "7"
    )
    assert code == 1
    assert "odd" in err


def test_count_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "additive", "--d", "6", "--c", "1",
        "--pmax", "40", "--oracle", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"]
    assert all(r["match"] for r in payload["results"])


def test_count_bad_prime(capsys):
    code, _, err = run(
        capsys, "count", "--family", "additive", "--d", "9", "--p", "15"
    )
    assert code == 1
    assert "odd prime" in err


def test_matrix_reference_grid(capsys):
    code, out, _ = run(capsys, "matrix", "--family", "additive", "--d", "10", "--p", "11")
    assert code == 0
    assert "0 0 0 0 1 1 1 1" in out
    assert "1 1 1 1 0 0 0 0" in out
    assert "all pass" in out


def test_matrix_no_columns_is_usage_error(capsys):
    code, _, err = run(capsys, "matrix", "--family", "additive", "--d", "9", "--p", "5")
    assert code == 1
    assert "NoColumns" in err


def test_matrix_non_generic_warning(capsys):
    code, out, _ = run(capsys, "matrix", "--family", "additive", "--d", "9", "--p", "7")
    assert code == 0
    assert "non-generic" in out


def test_matrix_json(capsys):
    code, out, _ = run(
        capsys, "matrix", "--family", "additive", "--d", "9", "--p", "19",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["rows"] == [1, 5, 7, 11, 13, 17]
    assert payload["violations"] == []
    assert len(payload["entries"]) == 6


def test_kernel_annotated(capsys):
    code, out, _ = run(capsys, "kernel", "--family", "additive", "--d", "9", "--p", "19")
    assert code == 0
    assert "rank 4" in out
    assert "relation" in out
    assert "NOT A RELATION" not in out


def test_kernel_json(capsys):
    code, out, _ = run(
        capsys, "kernel", "--family", "additive", "--d", "10", "--p", "11",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] == 5
    assert payload["saturated"]
    assert {r["kind"] for r in payload["relations"]} <= {"exact", "torsion"}


def test_kernel_warns_at_non_generic_prime(capsys):
    warning = "warning: non-generic prime (fewer than 2g columns)"
    code, out, _ = run(capsys, "kernel", "--family", "additive", "--d", "9", "--p", "7")
    assert code == 0
    assert out.splitlines()[-1] == warning
    code, out, _ = run(
        capsys, "kernel", "--family", "additive", "--d", "9", "--p", "7", "--format", "json"
    )
    assert json.loads(out)["generic"] is False
    code, out, _ = run(capsys, "kernel", "--family", "additive", "--d", "9", "--p", "19")
    assert warning not in out
    code, out, _ = run(
        capsys, "kernel", "--family", "additive", "--d", "9", "--p", "19", "--format", "json"
    )
    assert json.loads(out)["generic"] is True


def test_st0_text_and_json(capsys):
    code, out, _ = run(capsys, "st0", "--family", "additive", "--d", "10")
    assert code == 0
    assert "U(1)_2 x U(1)_2" in out
    code, out, _ = run(
        capsys, "st0", "--family", "additive", "--d", "8", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["name"] == "U(1)_2 x U(1)"


def test_st0_curve_shorthand(capsys):
    code, out, _ = run(capsys, "st0", "--curve", "x^12+c", "--format", "json")
    assert code == 0
    assert json.loads(out)["name"] == "U(1)_3 x U(1)_2"


def test_split_plain_and_refined(capsys):
    code, out, _ = run(capsys, "split", "--g", "5")
    assert code == 0
    assert "x^3 + 1" in out and "x^7 + x" in out
    code, out, _ = run(capsys, "split", "--g", "5", "--refine", "--check")
    assert code == 0
    assert "refine" in out
    assert "identity check: pass" in out


def test_split_json(capsys):
    code, out, _ = run(
        capsys, "split", "--g", "5", "--refine", "--check", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["identity_ok"]
    refined = [f for f in payload["factors"] if "refined" in f]
    assert len(refined) == 1
    assert len(refined[0]["refined"]) == 3


SPLIT_G11_TEXT = (
    "Jac(y^2 = x^24 - 3/5) ~ Jac(y^2 = x^3 - 3/5)^2 x Jac(y^2 = x^13 - 3/5*x)"
    " x Jac(y^2 = x^7 - 3/5*x)\n"
    "  refine y^2 = x^7 - 3/5*x:\n"
    "    y^2 = x^3 - 3/5*x\n"
    "    y^2 = x^3 - 3*c^(1/3)*x\n"
    "    y^2 = x^3 - 3*zeta*c^(1/3)*x\n"
    "identity check: pass\n"
)


def _lower_genus(i):
    return {
        "type": "lower_genus", "g": 3, "i": i, "c": "-3/5", "genus": 1,
        "terms": [
            {"x_exp": 3, "coeff": 1, "zeta_exp": 0, "c_exp": "0"},
            {"x_exp": 1, "coeff": -3, "zeta_exp": i, "c_exp": "1/3"},
        ],
        "exponent": 1,
    }


SPLIT_G11_JSON = {
    "command": "split", "g": 11, "c": "-3/5",
    "source": {"family": "additive", "d": 24, "c": "-3/5", "genus": 11},
    "factors": [
        {"family": "additive", "d": 3, "c": "-3/5", "genus": 1, "exponent": 2},
        {"family": "linear", "d": 13, "c": "-3/5", "genus": 6, "exponent": 1},
        {
            "family": "linear", "d": 7, "c": "-3/5", "genus": 3, "exponent": 1,
            "refined": [
                {"type": "curve", "family": "linear", "d": 3, "c": "-3/5",
                 "genus": 1, "exponent": 1},
                _lower_genus(0),
                _lower_genus(1),
            ],
        },
    ],
    "identity_checked": True,
    "identity_ok": True,
}


def test_split_refined_output_is_pinned(capsys):
    # one refined factor (x^7 - 3/5*x, genus 3), printed with c^(1/3)
    code, out, err = run(capsys, "split", "--g", "11", "--c=-3/5", "--refine", "--check")
    assert (code, out, err) == (0, SPLIT_G11_TEXT, "")
    code, out, err = run(
        capsys, "split", "--g", "11", "--c=-3/5", "--refine", "--check",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert out == json.dumps(SPLIT_G11_JSON, indent=2) + "\n"


def test_negative_fraction_c_after_a_space(capsys):
    # "--c -3/5" must read -3/5 as the value of --c, exactly as "--c=-3/5"
    for argv in (
        ("count", "--curve", "x^9+cx", "--p", "19"),
        ("kernel", "--family", "linear", "--d", "7", "--p", "13", "--format", "json"),
        ("st0", "--family", "linear", "--d", "9"),
        ("split", "--g", "11", "--refine", "--check"),
        ("sweep", "--family", "linear", "--d", "5", "--pmax", "200", "--format", "text"),
    ):
        spaced = run(capsys, *argv, "--c", "-3/5")
        joined = run(capsys, *argv, "--c=-3/5")
        assert spaced == joined, argv
        assert spaced[0] == 0 and "3/5" in spaced[1], argv


def test_sweep_csv(capsys):
    code, out, err = run(
        capsys, "sweep", "--family", "additive", "--d", "6", "--c", "1",
        "--pmax", "100",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,count,t_p,x_p"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    assert "# moments" in err
    # x_p printed with 12 significant digits
    x = lines[1].split(",")[3]
    assert len(x.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_sweep_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "linear", "--d", "7", "--c", "1",
        "--pmax", "60", "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["summary"]["classes_mod"] == 12
    assert {s["p"] for s in payload["samples"]} <= set(range(3, 61))


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "matrix", "--family", "additive", "--d", "10", "--p", "11",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["p"] == 11


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "count")[0] == 1
    assert run(capsys, "split", "--g", "1")[0] == 1


def test_prime_above_p_max_exits_1(capsys):
    # each check comes before any table or sieve of size p is built
    big = str(2**31 + 11)  # prime
    for argv in (
        ("count", "--curve", "x^9+c", "--p", big),
        ("count", "--curve", "x^9+c", "--pmin", big, "--pmax", big),
        ("matrix", "--curve", "x^9+c", "--p", big),
        ("kernel", "--curve", "x^9+c", "--p", big),
        ("sweep", "--curve", "x^9+c", "--pmin", big, "--pmax", big),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "PrimeTooLargeError" in err


def test_sweep_workers_out_of_range_exits_1(capsys, monkeypatch):
    from stjac import pointcount

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(pointcount, "ProcessPoolExecutor", no_pool)
    for workers in (0, -1, (os.cpu_count() or 1) + 1):
        code, out, err = run(
            capsys, "sweep", "--curve", "x^6+c", "--pmax", "50",
            "--workers", str(workers),
        )
        assert code == 1, workers
        assert out == ""
        assert "workers must be between 1 and" in err


def test_st0_zero_primes_exits_1(capsys):
    code, out, err = run(capsys, "st0", "--curve", "x^10+c", "--num-primes", "0")
    assert code == 1
    assert out == ""
    assert "at least 1" in err


def test_split_zero_trials_exits_1(capsys):
    code, out, err = run(
        capsys, "split", "--g", "5", "--refine", "--check", "--trials", "0"
    )
    assert code == 1
    assert "identity check: pass" not in out
    assert "trials must be at least 1" in err


def test_oracle_mismatch_exits_2(capsys, monkeypatch):
    # force a disagreement to pin the consistency-failure exit code
    from stjac import cli

    monkeypatch.setattr(cli.pointcount, "count_bruteforce", lambda fld, spec: -1)
    code, out, _ = run(
        capsys, "count", "--family", "additive", "--d", "9", "--c", "1",
        "--p", "19", "--oracle",
    )
    assert code == 2
    assert "MISMATCH" in out


def test_relation_failure_exits_2(capsys, monkeypatch):
    from stjac import cli
    from stjac.stmatrix import RelationResult

    monkeypatch.setattr(
        cli.stmatrix, "verify_relation", lambda *a, **k: RelationResult("fail", None)
    )
    code, out, _ = run(capsys, "kernel", "--family", "additive", "--d", "10", "--p", "11")
    assert code == 2
    assert "NOT A RELATION" in out
