import hashlib
import json
import math
import os
import shlex
from pathlib import Path

import pytest

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


def test_matrix_takes_c_like_every_curve_subcommand_and_ignores_it(capsys):
    # a carry matrix never depends on c; --c is validated, not read as --curve
    for fmt in ("text", "json"):
        argv = ("matrix", "--family", "additive", "--d", "6", "--p", "13", "--format", fmt)
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[2] == ""
        for c in (("--c", "5"), ("--c", "-3/5"), ("--c=-3/5",)):
            assert run(capsys, *argv, *c) == plain, (fmt, c)
    for sub in (("matrix", "--p", "13"), ("kernel", "--p", "13"), ("count", "--p", "13")):
        code, out, err = run(capsys, *sub, "--family", "additive", "--d", "6", "--c", "0")
        assert (code, out, err) == (1, "", "stjac: error: c must be nonzero\n"), sub


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


def test_split_check_passes_at_large_genus(capsys):
    # g = 45 and 81 refine genus-23 and genus-41 factors, where a float64
    # evaluation of the identity cancels away
    for g in ("45", "81"):
        code, out, err = run(capsys, "split", "--g", g, "--refine", "--check")
        assert (code, err) == (0, ""), g
        assert out.endswith("identity check: pass\n"), g


SPLIT_G3_TEXT = (
    "Jac(y^2 = x^8 + 1) ~ Jac(y^2 = x + 1)^2 x Jac(y^2 = x^5 + x)"
    " x Jac(y^2 = x^3 + x)\n"
)

SPLIT_G3_JSON = {
    "command": "split", "g": 3, "c": "1",
    "source": {"family": "additive", "d": 8, "c": "1", "genus": 3},
    "factors": [
        {"family": "additive", "d": 1, "c": "1", "genus": 0, "exponent": 2},
        {"family": "linear", "d": 5, "c": "1", "genus": 2, "exponent": 1},
        {"family": "linear", "d": 3, "c": "1", "genus": 1, "exponent": 1},
    ],
    "identity_checked": False,
    "identity_ok": True,
}


def test_split_with_nothing_to_refine_checks_nothing(capsys):
    # no factor of g = 3 is a linear twist of odd genus >= 3, so --check
    # has no identity to verify and must not report one
    code, out, err = run(capsys, "split", "--g", "3", "--refine", "--check")
    assert (code, out, err) == (0, SPLIT_G3_TEXT, "")
    code, out, err = run(
        capsys, "split", "--g", "3", "--refine", "--check", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out == json.dumps(SPLIT_G3_JSON, indent=2) + "\n"


def test_split_check_without_refine_is_a_usage_error(capsys):
    # without --refine no identity is ever checked, so --check alone would
    # report a check that did not happen
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "split", "--g", "5", "--check", "--format", fmt)
        assert (code, out, err) == (1, "", "stjac: error: --check needs --refine\n"), fmt
    assert run(capsys, "split", "--g", "5")[0] == 0


def test_split_has_no_float_check_options(capsys):
    for flag in ("--trials", "--tol", "--seed"):
        code, out, err = run(capsys, "split", "--g", "5", "--refine", "--check", flag, "1")
        assert (code, out) == (1, ""), flag
        assert f"unrecognized arguments: {flag} 1" in err, flag


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


def test_sweep_json_is_pinned(capsys):
    # the Hasse-Witt path (the residue mod p, lifted by the parity of t_p,
    # phi(c) at the ends: t_p = 6 at p = 7) prints exactly what the
    # Jacobi-sum path printed for every prime, those below 4g^2 = 100 too
    code, out, err = run(
        capsys, "sweep", "--curve", "x^12+c", "--c", "-3/5", "--pmax", "3000",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    summary = json.loads(out)["summary"]
    assert summary["moments"]["n_samples"] == 427
    assert summary["class_counts"] == {"1": 99, "5": 111, "7": 108, "11": 109}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "aab88c5118e46cf809d8395a77b050f0be0bf945412a4725a1500da3ec76f59b"
    )


def test_sweep_range_below_3_is_empty(capsys):
    # also a window whose one prime has bad reduction: 5 divides c = 5
    for window in (("--pmin", "1", "--pmax", "2"), ("--c", "5", "--pmin", "5", "--pmax", "5")):
        code, out, err = run(capsys, "sweep", "--curve", "x^6+c", *window)
        assert code == 0
        assert out == "p,count,t_p,x_p\n"
        assert err == "# moments: mean=0 m2=0 m4=0 m6=0; classes mod 6: {}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "matrix", "--family", "additive", "--d", "10", "--p", "11",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["p"] == 11


def _readme_usage():
    """The commands of README's CLI usage block, each split into argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_readme_usage_block_runs(tmp_path, monkeypatch, capsys):
    # a flag that is deleted but still documented fails here
    monkeypatch.chdir(tmp_path)
    commands = _readme_usage()
    assert len(commands) >= 7 and {argv[0] for argv in commands} == {
        "count", "matrix", "kernel", "st0", "split", "sweep"
    }
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "traces.csv").read_text().startswith("p,count,t_p,x_p\n")


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
    # trace_sweep imports the pool only when it starts one, from concurrent.futures
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for workers in (0, -1, (os.cpu_count() or 1) + 1):
        code, out, err = run(
            capsys, "sweep", "--curve", "x^6+c", "--pmax", "50",
            "--workers", str(workers),
        )
        assert code == 1, workers
        assert out == ""
        assert "workers must be between 1 and" in err
    cpus = os.cpu_count() or 1
    if cpus > 1:  # a valid count reaches the patched pool, so the patch is where it is looked up
        from stjac.pointcount import curve, trace_sweep

        with pytest.raises(AssertionError, match="a process pool was started"):
            trace_sweep(curve("additive", 6, 1), 3, 500, workers=cpus)


def test_count_empty_prime_range_exits_1(capsys):
    # the same range check and message as sweep
    for cmd in ("count", "sweep"):
        code, out, err = run(capsys, cmd, "--curve", "x^6+c", "--pmin", "20", "--pmax", "10")
        assert code == 1, cmd
        assert out == ""
        assert err == "stjac: error: p_min must not exceed p_max\n"


def test_st0_zero_primes_exits_1(capsys):
    code, out, err = run(capsys, "st0", "--curve", "x^10+c", "--num-primes", "0")
    assert code == 1
    assert out == ""
    assert "at least 1" in err
    # too few generic primes below the search bound is an input error too
    for argv in (("--curve", "x^10+c", "--num-primes", "600"), ("--curve", "x^10007+c")):
        code, out, err = run(capsys, "st0", *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("stjac: NoGenericPrimeError: only "), argv


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
    # one tampered residue (column a = 1 at every split prime) is no relation
    from stjac import stmatrix

    real = stmatrix._evaluate

    def spoiled(terms, plan, ell, powers):
        values = real(terms, plan, ell, powers)
        at = plan.columns == 1
        values[at] = 2 * values[at] % ell
        return values

    monkeypatch.setattr(stmatrix, "_evaluate", spoiled)
    code, out, _ = run(capsys, "kernel", "--family", "additive", "--d", "10", "--p", "11")
    assert code == 2
    assert "NOT A RELATION" in out


def _columns(indices, exponents):
    return [{"index": i, "exponent": a} for i, a in zip(indices, exponents)]


# stdout of `matrix --format json`, one case per family at a generic and a
# non-generic prime; the JSON "index" is a*k/(p-1), k = d or 2(d-1)
MATRIX_JSON = {
    ("additive", 9, 19): {
        "rows": [1, 5, 7, 11, 13, 17],
        "columns": _columns(range(1, 9), range(2, 17, 2)),
        "entries": [
            [0, 0, 0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0, 1, 0],
            [1, 1, 0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 0, 0, 0, 0],
        ],
        "generic": True,
    },
    ("additive", 9, 7): {
        "rows": [1, 5],
        "columns": _columns([3, 6], [2, 4]),
        "entries": [[0, 1], [1, 0]],
        "generic": False,
    },
    ("additive", 10, 11): {
        "rows": [1, 3, 7, 9],
        "columns": _columns([1, 2, 3, 4, 6, 7, 8, 9], [1, 2, 3, 4, 6, 7, 8, 9]),
        "entries": [
            [0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 1, 0, 0, 1],
            [1, 0, 0, 1, 0, 1, 1, 0], [1, 1, 1, 1, 0, 0, 0, 0],
        ],
        "generic": True,
    },
    ("linear", 7, 13): {
        "rows": [1, 5, 7, 11],
        "columns": _columns([1, 3, 5, 7, 9, 11], [1, 3, 5, 7, 9, 11]),
        "entries": [
            [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1],
            [1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0],
        ],
        "generic": True,
    },
    ("linear", 7, 5): {
        "rows": [1, 3],
        "columns": _columns([3, 9], [1, 3]),
        "entries": [[0, 1], [1, 0]],
        "generic": False,
    },
}


def test_matrix_json_is_pinned(capsys):
    for (family, d, p), fields in MATRIX_JSON.items():
        code, out, err = run(
            capsys, "matrix", "--family", family, "--d", str(d), "--p", str(p),
            "--format", "json",
        )
        expected = {
            "p": p, "d": d, "family": family, "rows": fields["rows"],
            "columns": fields["columns"], "entries": fields["entries"],
            "generic": fields["generic"], "violations": [],
        }
        assert (code, err) == (0, ""), (family, d, p)
        assert out == json.dumps(expected, indent=2) + "\n", (family, d, p)


def test_kernel_json_is_pinned(capsys):
    code, out, err = run(
        capsys, "kernel", "--family", "linear", "--d", "11", "--p", "41",
        "--format", "json",
    )
    basis = [
        [1, 0, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, -1, 0, 0, 1, 0, -1],
        [0, 0, 0, 1, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
    ]
    kinds = [("exact", 1), ("torsion", 2), ("exact", 1), ("torsion", 2),
             ("exact", 1), ("torsion", 2), ("torsion", 2)]
    expected = {
        "command": "kernel", "p": 41, "d": 11, "family": "linear", "c": "1",
        "rank": 7, "saturated": True, "generic": True, "basis": basis,
        "relations": [
            {"vector": v, "kind": kind, "order": order}
            for v, (kind, order) in zip(basis, kinds)
        ],
    }
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2) + "\n"


# (p, count) of y^2 = x^6 + 1/7 for p <= 60; the bad prime 7 (it divides
# the denominator of c) is skipped
COUNT_X6_C17 = [
    (5, 6), (11, 12), (13, 26), (17, 18), (19, 4), (23, 24), (29, 30),
    (31, 28), (37, 28), (41, 42), (43, 62), (47, 48), (53, 54), (59, 60),
]


def test_count_range_with_oracle_is_pinned(capsys):
    argv = ("count", "--curve", "x^6+c", "--c", "1/7", "--pmax", "60", "--oracle")
    rows = [
        {"p": p, "count": n, "t_p": p + 1 - n, "x_p": (p + 1 - n) / math.sqrt(p),
         "oracle": n, "match": True}
        for p, n in COUNT_X6_C17
    ]
    text = "".join(
        f"p={r['p']}  count={r['count']}  t_p={r['t_p']}  x_p={r['x_p']:.6f}"
        f"  oracle={r['count']}  ok\n"
        for r in rows
    )
    assert run(capsys, *argv) == (0, "curve: y^2 = x^6 + 1/7\n" + text, "")
    expected = {
        "command": "count", "family": "additive", "d": 6, "c": "1/7",
        "results": rows, "all_match": True,
    }
    assert run(capsys, *argv, "--format", "json") == (
        0, json.dumps(expected, indent=2) + "\n", ""
    )


ST0_X12_TEXT = (
    "ST0 of Jac(y^2 = x^12 + 1) = U(1)_3 x U(1)_2\n"
    "dimension: 2\n"
    "primes used: 13, 37, 61\n"
    "  weight [0, 0, 1, 1]: 3 plus / 3 minus\n"
    "  weight [0, 1, 0, 1]: 2 plus / 2 minus\n"
)

ST0_LINEAR_D9_JSON = {
    "name": "U(1)_2 x U(1)_2",
    "dimension": 2,
    "classes": [
        {"weight": [0, 0, 0, 0, 1, 1, 1, 1], "plus": 2, "minus": 2},
        {"weight": [0, 1, 1, 0, 1, 0, 0, 1], "plus": 2, "minus": 2},
    ],
    "primes_used": [17, 97, 113],
}


def test_st0_output_is_pinned(capsys):
    assert run(capsys, "st0", "--curve", "x^12+c") == (0, ST0_X12_TEXT, "")
    assert run(
        capsys, "st0", "--family", "linear", "--d", "9", "--c=-3/5", "--format", "json"
    ) == (0, json.dumps(ST0_LINEAR_D9_JSON, indent=2) + "\n", "")


MATRIX_D10_P11_TEXT = (
    "carry matrix for y^2 = x^10 + c at p=11 (4 embeddings x 8 characters)\n"
    "rows k: 1 3 7 9\n"
    "column exponents a: 1 2 3 4 6 7 8 9\n"
    "0 0 0 0 1 1 1 1\n"
    "0 1 1 0 1 0 0 1\n"
    "1 0 0 1 0 1 1 0\n"
    "1 1 1 1 0 0 0 0\n"
    "structure checks: all pass\n"
)

KERNEL_LINEAR_D11_P41_TEXT = (
    "kernel of the carry matrix at p=41 for y^2 = x^11 + c*x: rank 7, saturated=True\n"
    "  [1, 0, 0, 0, -1, 0, 0, 0, 0, 0]  ->  exact relation\n"
    "  [0, 1, 0, 0, -1, 0, 0, 0, 0, 0]  ->  relation up to torsion (order 2)\n"
    "  [0, 0, 1, 0, -1, 0, 0, 1, 0, -1]  ->  exact relation\n"
    "  [0, 0, 0, 1, -1, 0, 0, 0, 0, 0]  ->  relation up to torsion (order 2)\n"
    "  [0, 0, 0, 0, 0, 1, 0, 0, 0, -1]  ->  exact relation\n"
    "  [0, 0, 0, 0, 0, 0, 1, 0, 0, -1]  ->  relation up to torsion (order 2)\n"
    "  [0, 0, 0, 0, 0, 0, 0, 0, 1, -1]  ->  relation up to torsion (order 2)\n"
)


def test_matrix_and_kernel_text_is_pinned(capsys):
    assert run(capsys, "matrix", "--family", "additive", "--d", "10", "--p", "11") == (
        0, MATRIX_D10_P11_TEXT, ""
    )
    assert run(capsys, "kernel", "--family", "linear", "--d", "11", "--p", "41") == (
        0, KERNEL_LINEAR_D11_P41_TEXT, ""
    )


def test_sweep_csv_and_text_are_pinned(capsys):
    argv = ("sweep", "--curve", "x^9+cx", "--pmax", "500")
    code, out, err = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert (len(lines), lines[:3], lines[-1]) == (
        95, ["p,count,t_p,x_p", "3,4,0,0", "5,6,0,0"], "499,500,0,0"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "025c7a94a20adad0acb27e5eed0e38efe694b9d425bbf33e85bd4fb2d9df3bf3"
    )
    assert err == (
        "# moments: mean=-0.12917 m2=1.58887 m4=44.2235 m6=1569.34; classes mod 16:"
        " {'1': 11, '3': 13, '5': 13, '7': 12, '9': 9, '11': 12, '13': 11, '15': 13}\n"
    )
    assert run(capsys, *argv, "--format", "text") == (0, (
        "sweep of y^2 = x^9 + x, 94 good primes\n"
        "moments of x_p: mean=-0.129170 m2=1.588873 m4=44.223544 m6=1569.344451\n"
        "primes per class mod 16: 1: 11, 3: 13, 5: 13, 7: 12, 9: 9, 11: 12, 13: 11, 15: 13\n"
    ), "")
