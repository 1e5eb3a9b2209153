import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from curvesgp import cli, numsgp, planebranch, reduction, report
from curvesgp.cli import build_parser, main
from util import P, deadline, readme_cli_argvs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this copy of
    the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def spawn(*argv, **kwargs) -> subprocess.Popen:
    """``python -m curvesgp *argv`` in a fresh interpreter, importing this
    copy of the package, with stdout and stderr piped."""
    return subprocess.Popen([sys.executable, "-m", "curvesgp", *argv],
                            env=fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **kwargs)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Start-up cost: ``import curvesgp.cli`` pulls in neither
    ``dataclasses`` nor ``inspect`` (nor ``ast``, ``dis`` and ``tokenize``
    behind them).  Only modules new after the import count, so a site hook
    that preloads them cannot fail the test."""
    code = ("import sys; before = set(sys.modules); import curvesgp.cli; "
            "print(sorted({'dataclasses', 'inspect'} - before "
            "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_local_prints_minimal_generators(capsys):
    code, out, _ = run(capsys, "local", "x^4+x^5,x^6,x^15+x^16")
    assert code == 0
    assert "minimal generators: [4, 6, 13, 15]" in out


def test_local_show_reduced(capsys):
    code, out, _ = run(capsys, "local", "x^4+x^5,x^6,x^15+x^16",
                       "--show", "reduced")
    assert code == 0
    assert "value 13: x^13" in out


def test_local_char_option(capsys):
    code, out, _ = run(capsys, "local", "x^4,x^6+x^7,x^13", "--char", "2")
    assert code == 0
    assert "minimal generators: [4, 6, 13, 15]" in out


def test_global_command(capsys):
    code, out, _ = run(capsys, "global", "x^6+x^3,x^4")
    assert code == 0
    assert "minimal generators: [4, 6, 9]" in out


def test_char_option_large_prime_answers_quickly(capsys):
    # 10^18 + 3 is prime; trial division to its square root did not finish
    start = time.perf_counter()
    code, out, _ = run(capsys, "local", "x^2,x^3", "--char", "1000000000000000003")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert "minimal generators: [2, 3]" in out


def test_char_option_square_of_a_prime_is_rejected_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "local", "x^2,x^3", "--char",
                         str((2 ** 31 - 1) ** 2))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert "is not prime" in err


def test_char_option_above_the_primality_bound_exits_1(capsys):
    code, out, err = run(capsys, "local", "x^2,x^3", "--char", str(10 ** 25 + 13))
    assert code == 1
    assert out == ""
    assert "exact only below 3317044064679887385961981" in err


def test_global_char_option(capsys):
    code, out, _ = run(capsys, "global", "x^6+x^3,x^4", "--char", "5")
    assert code == 0
    assert "minimal generators: [4, 6, 9]" in out
    # over GF(2) the cross term of (x^6+x^3)^2 vanishes and x^3 appears
    code, out, _ = run(capsys, "global", "x^6+x^3,x^4", "--char", "2")
    assert code == 0
    assert "minimal generators: [3, 4]" in out


def test_semigroup_full_monoid(capsys):
    code, out, _ = run(capsys, "semigroup", "1")
    assert code == 0
    assert "conductor: 0" in out
    assert "genus: 0" in out


def test_semigroup_remark_facts(capsys):
    code, out, _ = run(capsys, "semigroup", "4,6,13,15")
    assert code == 0
    assert "conductor: 12" in out
    assert "type set: [2, 9, 11]" in out


def test_curve_infinity_transcript(capsys):
    code, out, _ = run(capsys, "curve-infinity",
                       "y^6-2*x^2*y^3-4*x*y^3-y^3+x^4")
    assert code == 0
    assert "minimal generators: [4, 6, 9]" in out
    assert "y^3-x^2-2*x-1/2" in out


def test_curve_infinity_sparse_abhyankar_moh_family(capsys):
    # (y^a - x^b)^2 - x^c, a = 5, b = 702, c = 1003, has the semigroup at
    # infinity <2a, 2b, ac>: a descent through two approximate roots, each
    # intersection number found by the kernel's sparse form
    with deadline(2):
        code, out, _ = run(capsys, "curve-infinity", "(y^5-x^702)^2-x^1003")
    assert code == 0
    assert "minimal generators: [10, 1404, 5015]" in out


@pytest.mark.parametrize("curve", ["y^3-x^2*y", "y^2", "(y^2-x^3)^2"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_curve_infinity_refuses_a_reducible_or_nonreduced_curve(capsys, curve,
                                                                json_flag):
    # three places at infinity, a double line and a double cusp: an
    # approximate root shares a component with the curve
    code, out, err = run(capsys, "curve-infinity", curve, *json_flag)
    assert code == 1
    assert out == ""
    assert err.startswith("error[NotOnePlaceAtInfinity]: the approximate root ")
    assert "shares a component with the curve, which is reducible or not " \
        "reduced" in err


def test_plane_infinity(capsys):
    code, out, _ = run(capsys, "plane-infinity", "x^6+x", "x^4")
    assert code == 0
    assert "minimal generators: [4, 6, 7]" in out
    assert "y^3-x^2" in out


def test_plane_local(capsys):
    code, out, _ = run(capsys, "plane-local", "x^4", "x^6+x^7")
    assert code == 0
    assert "minimal generators: [4, 6, 13]" in out
    assert "y^2-x^3" in out


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_plane_local_report_depends_on_the_normalised_pair(capsys, flags):
    # the swapped pair, a non-monic monomial, and one with a constant term
    # as well are the same normalised pair as x^4, x^6+x^7
    outs = [run(capsys, "plane-local", f, g, *flags)
            for f, g in (("x^4", "x^6+x^7"), ("x^6+x^7", "x^4"),
                         ("2*x^4", "x^6+x^7"), ("5+2*x^4", "x^6+x^7"))]
    code, out, _ = outs[0]
    assert code == 0 and ('"curve"' if flags else "F(x,y)") in out  # the full report
    assert all(other == outs[0] for other in outs[1:])


def test_plane_local_normalises_the_pair_once(capsys, monkeypatch):
    normalised = []
    basis_element = planebranch.basis_element
    monkeypatch.setattr(planebranch, "basis_element",
                        lambda p, setting: normalised.append(p) or basis_element(p, setting))
    # one pair through each pipeline
    for f, g in (("x^6+x^7", "5+2*x^4"), ("x^2+x^3", "x^3")):
        normalised.clear()
        assert run(capsys, "plane-local", f, g)[0] == 0
        assert len(normalised) == 2, (f, g)


def test_plane_local_through_three_approximate_roots(capsys):
    code, out, _ = run(capsys, "plane-local", "x^8", "x^12+x^14+x^15", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["roots"]) == len(data["evaluated"]) == 3
    assert data["char_sequence"]["r"] == [8, 12, 26, 53]


@pytest.mark.parametrize("argv, keys", [
    (["plane-local", "x^4+x^5", "x^6"], ["m", "d", "e", "r", "C"]),
    # orders 4 and 7 are coprime: the descent is seeded with o(g) and
    # stops before the first reparametrised coefficient
    (["plane-local", "x^4+x^5", "x^7"], ["m", "d", "e", "r", "C"]),
    (["plane-infinity", "x^6+x", "x^4"], ["d", "e", "r", "C"]),
    (["curve-infinity", "y^6-2*x^2*y^3-4*x*y^3-y^3+x^4"], ["d", "e", "r", "C"]),
])
def test_char_sequence_names_m_only_for_a_local_descent(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert (list(data["char_sequence"]), data["command"]) == (keys, argv[0])


def test_plane_local_series_branch(capsys):
    code, out, _ = run(capsys, "plane-local", "t^7", "t^4+t^2")
    assert code == 0
    assert "minimal generators: [2, 7]" in out


def test_deform_command(capsys):
    code, out, _ = run(capsys, "deform", "local", "x^4,x^6+x^7")
    assert code == 0
    assert "H:" in out


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "local", "x^13+x^14",
                       "--against", "x^4,x^6+x^7")
    assert code == 0
    assert "remainder:" in out


def test_reduce_algorithmic_json_writes_its_expression(capsys):
    # the basis builders do not record the step coefficients; `reduce`
    # writes them in both modes, and f is the remainder plus the sum of
    # c * f1^i * f2^j over the monic basis f1 = x^3 + x/3, f2 = x^2 + x
    argv = ["reduce", "global", "1/2*x^8+x^3", "--against", "3*x^3+x,x^2+x"]
    want = [["1/2", [0, 4]], ["-2", [1, 2]], ["1", [0, 3]], ["-7/3", [1, 1]],
            ["1/6", [0, 2]], ["10/9", [1, 0]], ["11/18", [0, 1]]]
    f1, f2 = P((3, 1), (1, "1/3")), P((2, 1), (1, 1))
    total = P((1, "-53/54"))
    for c, (i, j) in want:
        total = total + (f1 ** i * f2 ** j).scale(Fraction(c))
    assert total == P((8, "1/2"), (3, 1))
    for mode in ("algorithmic", "expression"):
        code, out, _ = run(capsys, *argv, "--mode", mode, "--json")
        assert code == 0, mode
        rep = json.loads(out)["reduction"]
        assert rep["expression"] == want, mode
        assert rep["remainder"]["string"] == "-53/54*x", mode
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "expression terms: 7"


def test_reduce_normalises_against_like_the_basis_commands(capsys):
    # locally a constant term is stripped, as `local` strips it from a
    # generator; a zero or constant entry is refused with `local`'s message,
    # and so is a constant first generator of the monomial plane pipeline
    code, out, _ = run(capsys, "reduce", "local", "x^4", "--against", "1+x^2")
    assert code == 0
    assert out.splitlines()[0] == "remainder: 0"
    for argv in (("reduce", "global", "x^3", "--against", "1"),
                 ("reduce", "local", "x^4", "--against", "x^2,0"),
                 ("plane-local", "5", "x^3")):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "zero or constant generator" in err, argv


def test_reduce_global_expression_honours_bound(capsys):
    argv = ["reduce", "global", "x^10+x^7", "--against", "x^2+x,x^3",
            "--mode", "expression"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["remainder: 2*x",
                                "complete: True   shortcut: False",
                                "expression terms: 9"]
    # the leading degree 10 already passes the bound, so nothing is divided
    code, out, _ = run(capsys, *argv, "--bound", "3")
    assert code == 0
    assert out.splitlines() == ["remainder: 0",
                                "complete: False   shortcut: False",
                                "expression terms: 0"]


def test_reduce_bound_needs_expression_mode(capsys):
    # --bound only limits an expression division; elsewhere it is refused
    for mode in ((), ("--mode", "algorithmic")):
        argv = ["reduce", "local", "x^3", "--against", "x^2", *mode,
                "--bound", "5"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == 2, argv
        assert captured.out == ""
        assert "--bound needs --mode expression" in captured.err


def test_local_non_numerical_semigroup(capsys):
    code, out, _ = run(capsys, "local", "x^4,x^6")
    assert code == 0
    assert "gcd: 2" in out
    # K[[x^2 + x^3]]: the semigroup needs no division past the escape bound
    code, out, _ = run(capsys, "local", "x^2+x^3,x^4+2*x^5+x^6")
    assert code == 0
    assert "minimal generators: [2]" in out
    assert "gcd: 2" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "local", "x^^4")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("template, position", [
    ("x^2+{}*x^3", 4), ("x^{}", 2)])
def test_over_long_literal_is_a_parse_error(capsys, template, position):
    # int() refuses a literal past CPython's digit cap; that is a parse
    # error at the literal, which names the cap, and no ValueError
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "local", template.format("9" * (cap + 700)))
    assert code == 2
    assert out == ""
    assert err == (f"parse error: integer literal of {cap + 700} digits "
                   f"exceeds the limit of {cap} digits (at position {position})\n")


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "semigroup", "0,3")
    assert code == 1
    assert "error[ValueError]" in err


def test_limit_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "local", "x^2+x^4,x^4")
    assert code == 3
    assert "LimitExceeded" in err


@pytest.mark.parametrize("argv", [
    # divisions that need not end: each must stop at the escape bound at once
    ("local", "5*x^2+x^4-x^6,3*x^8+1/2*x^9,x^4+2*x^10"),
    ("local", "3*x^12,2/3*x^8+x^6+x^4"),
    ("local", "3*x^11+x^10-2*x^8,1/2*x^6,5*x^6+3*x^2"),
    ("reduce", "local", "x^6", "--against", "x^2+3*x^4,x^4-2/3*x^6"),
    # K[[x^2 + x^3]] has the semigroup <2>, but no reduced basis
    ("local", "x^2+x^3,x^4+2*x^5+x^6", "--show", "reduced"),
    ("local", "x^2+x^4", "--show", "reduced"),
])
def test_divergent_local_divisions_exit_3_at_the_escape_bound(capsys, argv):
    with deadline(2):
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(
        "error[LimitExceeded]: local division reached the escape bound ")
    assert "in the value monoid of gcd 2" in err


def test_memory_error_exits_3_without_traceback(capsys, monkeypatch):
    def exhausted(argv):
        raise MemoryError("cannot allocate the product")

    monkeypatch.setattr(cli, "run", exhausted)
    code, out, err = run(capsys, "semigroup", "3,5")
    assert code == 3
    assert out == ""
    assert err == "error[MemoryError]: cannot allocate the product\n"
    assert "Traceback" not in err


def test_bare_memory_error_names_the_command(capsys, monkeypatch):
    # the interpreter raises MemoryError() with no text when it runs out
    def exhausted(argv):
        raise MemoryError()

    monkeypatch.setattr(cli, "run", exhausted)
    code, out, err = run(capsys, "semigroup", "3000001,3000002")
    assert (code, out) == (3, "")
    assert err == "error[MemoryError]: out of memory in semigroup\n"


def test_closed_stdout_exits_1_without_traceback():
    # the report lists about 5 * 10^5 gaps, far more than a pipe buffers,
    # so writing it fails once the reader has gone
    proc = spawn("semigroup", "1009,1013", "--json")
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b'{\n  "command": "semigroup"')
    assert proc.returncode == 1
    assert "Traceback" not in err.decode()
    assert err.decode() == "error[BrokenPipeError]: [Errno 32] Broken pipe\n"


def test_warning_is_one_line_without_source_path(capsys):
    # the truncated relator warning names neither the file nor the line
    # that raised it, so stderr does not depend on where curvesgp lives
    proc = spawn("deform", "local", "x^4,x^6+x^7+x^9", text=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert "minimal generators: [4, 6, 13]" in out
    assert err == ("warning: expression for relation at value 26 was "
                   "truncated; its relators are inexact\n")
    assert ".py:" not in err
    # nor on the process's history: every run in one process writes the
    # same warning as a fresh interpreter
    for _ in range(2):
        assert run(capsys, "deform", "local", "x^4,x^6+x^7+x^9")[::2] == (0, err)


def test_plane_commands_reject_char(capsys):
    # the plane commands work over Q only, so their table rows take no --char
    for argv in (["plane-local", "x^4", "x^6+x^7"],
                 ["plane-infinity", "x^4", "x^6+x"],
                 ["curve-infinity", "y^2-x^3"]):
        code, out, err = _main_outcome(capsys, argv + ["--char", "5"])
        assert code == 2, argv
        assert out == ""
        assert "unrecognized arguments: --char 5" in err
        code, out, _ = _main_outcome(capsys, [argv[0], "-h"])
        assert code == 0 and "--json" in out and "--char" not in out, argv


def test_plane_infinity_rejects_non_proper_parametrisation(capsys):
    # ((t^2+t)^2, (t^2+t)^3) factors through u = t^2+t: the resultant is
    # (y^3-x^2)^2 and its approximate root y^3-x^2 vanishes on the pair
    code, out, err = run(capsys, "plane-infinity", "x^4+2*x^3+x^2",
                         "x^6+3*x^5+3*x^4+x^3")
    assert code == 1
    assert out == ""
    assert "error[ValueError]: parametrisation is not proper" in err


def test_plane_local_imprimitive_pair_stops_at_degree_bound(capsys):
    # g = f + f^2 lies in K[[f]] and f has order 2, so the descent on the
    # reparametrised g would never leave 2*N; the common right factor
    # q = f of order e = 2 decides it before the descent starts
    with deadline(5):
        code, out, err = run(capsys, "plane-local", "x^2+x^3",
                             "x^2+x^3+x^4+2*x^5+x^6")
    assert code == 1
    assert out == ""
    assert "polynomials in q = x^3+x^2 of order e = 2" in err
    assert "not a primitive parametrisation" in err


@pytest.mark.parametrize("f, g, named", [
    ("x^2", "x^4+x^6", "q = x^2 of order e = 2"),
    ("x^6", "x^9+x^12", "q = x^3 of order e = 3"),
])
def test_plane_local_monomial_route_names_q_and_e(capsys, f, g, named):
    # through plane_local, as README says: exit 1 with q and e named, not
    # a stalled descent on g's support
    code, out, err = run(capsys, "plane-local", f, g)
    assert (code, out) == (1, "")
    assert err == (f"error[ValueError]: f and g are polynomials in {named}: "
                   "t -> (f, g) is not a primitive parametrisation\n")


@pytest.mark.parametrize("f, g, gens", [
    ("x", "x", [1]),                 # n = 1 and D = 1: the degree bound is 1
    ("x+x^2", "x^3", [1]),
    ("x^3+x^5", "x+x^2", [1]),       # swapped to n = 1
    ("x^3", "x^3+x^4", [3, 4]),      # monomial f of the same order as g
    # swapped to f = x^4; the descent needs the exponent 20001, past
    # PRECISION_CAP, so it must not walk the coefficients up to it
    ("x^6+x^20001", "x^4", [4, 6, 20007]),
    # a sparse g of high degree: the curve's power sums stay sparse
    ("x^4", "x^6+x^1001", [4, 6, 1007]),
])
def test_plane_local_edge_cases_of_the_descent(capsys, f, g, gens):
    start = time.perf_counter()
    code, out, err = run(capsys, "plane-local", f, g)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert f"minimal generators: {gens}" in out


def test_sparse_plane_inputs_stay_small(capsys):
    # the resultant kernel packs a polynomial in X into one int only when
    # the input is dense: packed slots sized by the coefficient bound
    # |mu|_1^m (1 + |h|_1)^n would take 66 MB on the first input and
    # exhaust memory on the second
    argvs = [["plane-local", "x^4", "x^6+x^1001"],
             ["plane-local", "x^6+x^20001", "x^4"],
             ["plane-infinity", "x^4+x", "3*x^6+x^1001"]]
    for argv in argvs:
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, ""), argv
        assert peak < 32 * 2 ** 20, (argv, peak)


@pytest.mark.parametrize("argv", [["plane-local", "x^4", "x^6+x^10001"],
                                  ["plane-infinity", "x^4+x", "3*x^6+x^1001"]])
def test_sparse_plane_inputs_answer_at_once(capsys, argv):
    with deadline(10):
        code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_plane_local_precision_cap_below_degree_bound_exits_3(capsys, monkeypatch):
    # a primitive pair whose descent needs the exponent 21 (<2, 21> at the
    # real cap), so a cap of 16 stops it first
    monkeypatch.setattr(planebranch, "PRECISION_CAP", 16)
    code, out, err = run(capsys, "plane-local", "x^2+x^3",
                         "x^4+2*x^5+x^6+x^21")
    assert code == 3
    assert out == ""
    assert "at precision 16 (PRECISION_CAP)" in err


def test_basis_past_max_elements_exits_3(capsys, monkeypatch):
    # the basis of <8, 12, 14 + ...> adjoins values 26 and 53, so a cap of
    # 3 elements stops the second adjunction
    monkeypatch.setattr(reduction, "MAX_ELEMENTS", 3)
    code, out, err = run(capsys, "local", "x^8,x^12+x^14+x^15")
    assert (code, out) == (3, "")
    assert err == "error[LimitExceeded]: basis grew past max_elements=3\n"


@pytest.mark.parametrize("gens", [
    "7/3*x^13-2*x^9+7/3*x^4+1,-5/4*x^9-2/3*x^6-5/4*x^2,5/4*x^11-5/4*x^6+1/2*x^3",
    "7*x^2+100/3*x^0+2*x^9-5/2*x^8,-5/2*x^5-2/3*x^13,-2*x^5+1*x^14",
])
def test_swelling_global_divisions_exit_3_at_the_coefficient_budget(capsys, gens):
    # over GF(p) these answer <2, 3> and <2, 5> at once; over Q the loop's
    # integers grow about 2.6 times in bits per adjoined element, and
    # without the budget it ran for minutes
    assert reduction.MAX_COEFF_BITS == 2 ** 18
    with deadline(10):
        code, out, err = run(capsys, "global", gens)
    assert (code, out) == (3, "")
    assert err.startswith("error[LimitExceeded]: coefficients reached ")
    assert " bits, past the budget MAX_COEFF_BITS=262144, at exponent " in err


def test_presentation_computed_only_for_json(capsys, monkeypatch):
    calls = []
    original = numsgp.presentation_for_generators

    def counted(gens):
        calls.append(gens)
        return original(gens)

    monkeypatch.setattr(numsgp, "presentation_for_generators", counted)
    code, out, _ = run(capsys, "semigroup", "61,97,113")
    assert code == 0 and "type set:" in out
    assert calls == []
    code, out, _ = run(capsys, "semigroup", "61,97,113", "--json")
    assert code == 0 and json.loads(out)["presentation"]
    assert len(calls) == 1


def test_json_output_deterministic(capsys):
    code, out1, _ = run(capsys, "local", "x^4+x^5,x^6,x^15+x^16",
                        "--show", "all", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "local", "x^4+x^5,x^6,x^15+x^16",
                        "--show", "all", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["semigroup"]["minimal_generators"] == [4, 6, 13, 15]
    assert data["semigroup"]["conductor"] == 12
    assert all(isinstance(c, str) for _, c in data["basis"][0]["terms"])


def test_json_deform(capsys):
    code, out, _ = run(capsys, "deform", "global", "x^6+x^3,x^4", "--json")
    assert code == 0
    data = json.loads(out)
    d = data["deformation"]
    assert d["variables"][0] == "u"
    assert len(d["toric"]) == len(d["homogenized"]) == len(d["complete"])


def test_json_semigroup_presentation(capsys):
    code, out, _ = run(capsys, "semigroup", "4,6,15", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["presentation"]) == 2


def test_semigroup_lists_every_gap_up_to_the_frobenius_number(capsys):
    # <1009, 1013> has 510048 gaps, written by one format call
    with deadline(10):
        code, out, _ = run(capsys, "semigroup", "1009,1013", "--json")
    assert code == 0
    data = json.loads(out)["semigroup"]
    gaps = data["gaps"]
    assert len(gaps) == data["genus"] == 510048
    assert all(a < b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == data["frobenius"] == 1020095


def test_semigroup_four_large_generators_within_budget(capsys):
    # the presentation scan visits ~4000 candidate values w + a_i
    start = time.perf_counter()
    code, out, _ = run(capsys, "semigroup", "1009,1013,1019,1021", "--json")
    assert time.perf_counter() - start < 3
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["minimal_generators"] == [1009, 1013, 1019, 1021]
    assert data["presentation"]


def test_local_two_large_monomials_within_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "local", "x^1009,x^1013", "--json")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["semigroup"]["minimal_generators"] == [1009, 1013]


def _main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call; argparse errors exit by
    raising."""
    try:
        code = main(list(argv))
    except SystemExit as err:
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_keeps_no_state_between_calls(capsys):
    argvs = [
        ["local", "x^4+x^5,x^6,x^15+x^16", "--show", "reduced"],
        ["semigroup", "4,6,15", "--json"],
        ["local", "x^4+"],                     # polynomial parse error: 2
        ["local", "x^4,x^6", "--show", "bad"],  # argparse error: exit 2
        ["global", "x^3,x^4+x", "--json"],
        ["local", "x^4+x^5,x^6,x^15+x^16"],
    ]
    assert build_parser() is build_parser()
    in_one_process = [_main_outcome(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(_main_outcome(capsys, argv))
    assert in_one_process == fresh
    assert [code for code, *_ in fresh] == [0, 0, 2, 2, 0, 0]
    assert "value 13: x^13" in fresh[0][1]
    assert "reduced basis" not in fresh[-1][1]


def test_argvs_that_argparse_reads(capsys):
    # argvs that the command table declines go to argparse: help exits 0,
    # an abbreviation and --opt=value read as the plain forms, and a bad
    # choice exits 2 with argparse's message
    for argv in (["--help"], ["plane-local", "--help"]):
        code, out, _ = _main_outcome(capsys, argv)
        assert code == 0 and out.startswith("usage: curvesgp"), argv
    assert _main_outcome(capsys, ["semigroup", "3,5", "--js"]) == \
        _main_outcome(capsys, ["semigroup", "3,5", "--json"])
    assert _main_outcome(capsys, ["local", "x^4,x^6", "--char=0"]) == \
        _main_outcome(capsys, ["local", "x^4,x^6", "--char", "0"])
    code, out, err = _main_outcome(capsys, ["local", "x^4,x^6", "--show", "bad"])
    assert (code, out) == (2, "")
    assert "argument --show: invalid choice: 'bad'" in err


def test_local_reduced_basis_of_five_term_branch_within_budget(capsys):
    # the reduced basis multiplies powers of degree-63 elements with long
    # rational coefficients; the schoolbook Fraction loop took ~48 s
    start = time.perf_counter()
    code, out, _ = run(capsys, "local", "x^32,x^48+x^56+x^60+x^62+x^63",
                       "--show", "reduced", "--json")
    assert time.perf_counter() - start < 15
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["minimal_generators"] == [32, 48, 104, 212, 426, 853]
    assert [e["value"] for e in data["reduced_basis"]] == [32, 48, 104, 212, 426, 853]


def test_deform_five_term_branch_within_budget(capsys):
    # each relator's expression runs the reduction step on powers of
    # degree-63 elements with long rational coefficients
    start = time.perf_counter()
    code, out, err = run(capsys, "deform", "local",
                         "x^32,x^48+x^56+x^60+x^62+x^63", "--json")
    assert time.perf_counter() - start < 1.5
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["minimal_generators"] == [32, 48, 104, 212, 426, 853]
    complete = data["deformation"]["complete"]
    assert len(complete) == len(data["deformation"]["exact"]) == 5
    assert complete.count(True) == 4
    assert err.count("warning: ") == 1 and "truncated" in err


# one argv per shape of report
REPORT_ARGVS = [
    ["local", "x^4+x^5,x^6,x^15+x^16", "--show", "all"],
    ["global", "x^6+x^3,x^4", "--show", "all"],
    ["deform", "local", "x^4,x^6+x^7"],
    ["deform", "global", "x^6+x^3,x^4"],
    ["plane-local", "x^4", "x^6+x^7"],           # f a monomial
    ["plane-local", "x^2+x^3", "x^3"],           # f not a monomial
    ["plane-infinity", "x^6+x", "x^4"],
    ["curve-infinity", "y^6-2*x^2*y^3-4*x*y^3-y^3+x^4"],
    ["reduce", "local", "x^13+x^14", "--against", "x^4,x^6+x^7"],
    ["semigroup", "4,6,13,15"],
    ["semigroup", "4,6"],                        # gcd 2: no presentation
]


@pytest.mark.parametrize("argv", REPORT_ARGVS)
def test_json_layout_is_json_dumps_indent_2(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv", REPORT_ARGVS + [
    ["global", "x^3+7^6000*x", "--show", "basis"],  # past the str(int) cap
] + readme_cli_argvs())
def test_text_is_rendered_from_the_json_report(capsys, argv):
    code, text, err = run(capsys, *argv)
    assert code == 0
    code, out, err_json = run(capsys, *argv, "--json")
    assert code == 0 and err_json == err
    assert text == report.text(json.loads(out)) + "\n"


def test_json_command_is_the_cli_command(capsys):
    argvs = [
        ["local", "x^4,x^6+x^7"],
        ["global", "x^6+x^3,x^4"],
        ["plane-local", "x^4", "x^6+x^7"],  # through plane_local
        ["plane-local", "x^2+x^3", "x^3"],  # through gamma_local_pair
        ["plane-infinity", "x^6+x", "x^4"],
        ["curve-infinity", "y^6-2*x^2*y^3-4*x*y^3-y^3+x^4"],
        ["deform", "local", "x^4,x^6+x^7"],
        ["reduce", "local", "x^13+x^14", "--against", "x^4,x^6+x^7"],
        ["semigroup", "4,6,13,15"],
    ]
    commands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in argvs} == set(commands)
    for argv in argvs:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert json.loads(out)["command"] == argv[0]


def test_coefficients_past_the_int_string_cap_are_printed(capsys):
    # CPython refuses str(int) past 4300 digits; 7^6000 has 5071
    cap = sys.get_int_max_str_digits()
    code, text, _ = run(capsys, "global", "x^3+7^6000*x", "--show", "basis")
    assert code == 0
    code, out, _ = run(capsys, "global", "x^3+7^6000*x", "--show", "basis",
                       "--json")
    assert code == 0
    assert sys.get_int_max_str_digits() == cap
    sys.set_int_max_str_digits(0)
    try:
        big = str(7 ** 6000)
    finally:
        sys.set_int_max_str_digits(cap)
    assert f"value 3: x^3+{big}*x" in text
    assert json.loads(out)["basis"][0]["terms"] == [[1, big], [3, "1"]]


@pytest.mark.parametrize("argv, message", [
    (["curve-infinity", "(y^2-7^6000*x^3)^2"],
     "error[NotOnePlaceAtInfinity]: the approximate root y^2-"),
    (["plane-infinity", "(x^2+7^6000*x)^3", "(x^2+7^6000*x)^2"],
     "error[ValueError]: parametrisation is not proper: f and g are "
     "polynomials in q = x^2+"),
])
def test_error_messages_past_the_int_string_cap_are_printed(capsys, argv, message):
    # the message names a polynomial with a 5071-digit coefficient: the
    # digit cap is lifted for the whole computation, not only the report
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert sys.get_int_max_str_digits() == cap
    assert code == 1
    assert out == ""
    assert err.startswith(message)
    assert "Exceeds the limit" not in err
    assert len(err) > 5071


@pytest.mark.parametrize("argv, gens", [
    (["plane-local", "--json", "--", "-2/3*x^6-3*x^2", "x^3"], [2, 3]),
    (["local", "--json", "--", "-x^4,x^6+x^7"], [4, 6, 13]),
])
def test_leading_minus_polynomial_after_double_dash(capsys, argv, gens):
    # without "--", argparse reads the leading minus as an option (exit 2)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["semigroup"]["minimal_generators"] == gens


def _bench_argvs() -> list[list[str]]:
    """Every argv of the benchmark's job lists at seeds 1 and 7, with and
    without ``--json``, once each."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import build_jobs
        seen = {}
        for workload in ("basis", "plane", "semigroup"):
            for seed in (1, 7):
                for job in build_jobs(workload, seed, 20):
                    for argv in (job["argv"], job["argv"][:-1]):
                        seen.setdefault(tuple(argv), argv)
    finally:
        sys.path.pop(0)
    return list(seen.values())


def _variant(rng, argv: list[str]) -> list[str]:
    """One seeded change of a plain argv into one that argparse reads
    differently, may reject, or reads the same."""
    argv = list(argv)
    args = cli.COMMANDS[argv[0]][1]
    opts = [i for i, t in enumerate(argv[:-1])
            if t.startswith("--") and t != "--json" and "=" not in t]
    values = [i for i in range(1, len(argv)) if not argv[i].startswith("--")]
    kind = rng.randrange(10)
    if kind == 0 and opts:  # an option and its value moved to the front
        i = rng.choice(opts)
        pair = argv[i:i + 2]
        del argv[i:i + 2]
        argv[1:1] = pair
    elif kind == 1 and opts:  # --opt=value
        i = rng.choice(opts)
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif kind == 2:  # an abbreviated option
        argv.insert(rng.randrange(1, len(argv) + 1),
                    rng.choice(["--js", "--j", "--ch", "--sh", "--ag"]))
    elif kind == 3:  # "--" before the last token
        argv.insert(len(argv) - 1, "--")
    elif kind == 4 and values:  # a leading minus on a value, often an option's
        i = rng.choice([i + 1 for i in opts] if opts and rng.random() < 0.5
                       else values)
        argv[i] = "-" + argv[i]
    elif kind == 5:  # an unknown option, with or without a value
        argv[rng.randrange(1, len(argv) + 1):0] = rng.choice(
            [["--bogus"], ["--bogus", "3"], ["-x"], ["-"]])
    elif kind == 6 and len(argv) > 1:  # a token, or an option and its value, dropped
        i = rng.choice(opts) if opts and rng.random() < 0.5 else \
            rng.randrange(1, len(argv))
        del argv[i:i + 1 + (i in opts)]
    elif kind == 7:  # a bad choice or integer, or a repeated option
        a = rng.choice([a for a in args if not a.flag])
        if a.choices is None and a.type is None:
            argv += ([a.name, rng.choice(["x^2", "-x^2", "-2*x^2"])]
                     if a.name.startswith("-") else ["extra"])
        elif not a.name.startswith("-"):  # "setting", right after the command
            argv[1] = rng.choice(["Local", "globall", ""])
        else:
            bad = ["bad", "Semigroup"] if a.choices else ["0x7", " 5", "", "-3"]
            argv += [a.name, rng.choice(bad + [str(a.default)])]
    elif kind == 8:  # help
        argv.insert(rng.randrange(0, len(argv) + 1), rng.choice(["-h", "--help"]))
    else:  # --json repeated, or the command misspelt
        argv += ["--json"] if rng.random() < 0.5 else []
        if rng.random() < 0.3:
            argv[0] = argv[0].upper()
    return argv


def test_plain_argv_path_equals_argparse(capsys, monkeypatch):
    # the command table reads an argv, or declines it; where it reads one,
    # it returns argparse's namespace, and main prints the same either way
    plain = _bench_argvs() + readme_cli_argvs() + [
        ["reduce", "global", "x^7", "--against", "x^3,x^2", "--mode",
         "expression", "--bound", "9", "--char", "7"],
        ["reduce", "local", "x^4", "--against", "x^2", "--bound", "3"],
        ["deform", "global", "x^6+x^3,x^4", "--char", "7", "--json"],
        ["local", "--show", "all", "x^4,x^6+x^7", "--char", "101"]]
    by_command: dict = {}
    for argv in plain:
        by_command.setdefault(argv[0], []).append(argv)
    assert set(by_command) == set(cli.COMMANDS)
    rng = random.Random(61)
    variants = [_variant(rng, rng.choice(by_command[rng.choice(sorted(by_command))]))
                for _ in range(500)] + [
        ["reduce", "local", "x^4", "--against", "-x^2"],  # a value taken as an option
        ["reduce", "local", "x^4", "--mode", "expression"],  # --against missing
        ["local", "x^4,x^6", "--show", "bad"],
        ["local", "x^4,x^6", "--char", "x"],
        ["local", "x^4,x^6", "--char", "-3"],  # argparse reads -3 as a value
        ["local", "x^4,x^6", "--char"],
        ["local", "x^4,x^6", "--char=0"],
        ["plane-infinity", "--char", "5", "x^6+x", "x^4"],  # takes no --char
        ["semigroup", "3,5", "--js"],
        ["local", "x^4", "x^6"],
        ["local"],
        ["local", "-"],
        ["local", ""],
        ["local", "--json", "--", "-x^4,x^6+x^7"],
        ["deform", "Local", "x^4,x^6"],
        ["--help"],
        ["plane-local", "-h"],
        []]
    parser = build_parser()
    read = []
    for argv in plain + variants:
        args = cli._parse_plain(argv)
        if args is not None:
            assert vars(args) == vars(parser.parse_args(argv)), argv
            read.append(argv)
    # every plain argv but README's "--against=-x^2" is read by the table
    assert [a for a in plain if a not in read] == [
        ["reduce", "local", "x^4", "--against=-x^2"]]
    declined = [a for a in variants if a not in read]
    assert 100 < len(declined) < 400
    outcomes = [_main_outcome(capsys, argv) for argv in plain + variants]
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    assert [_main_outcome(capsys, argv) for argv in plain + variants] == outcomes
    codes = {code for code, _, _ in outcomes}
    assert {0, 2} <= codes
