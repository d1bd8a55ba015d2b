"""End-to-end command line coverage, in process.

Every subcommand gets a happy path (text and JSON where both exist) and
the documented exit codes are pinned: 0 success, 1 domain error, 2 parse
error.  The cold-process tests at the end run a fresh interpreter, the
only place the set of imported modules shows.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from extmcg import ambient_geom, cli, f2_forms


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_arf(capsys):
    code, out, _ = run(capsys, "arf", '{"basis_values": [0, 0]}')
    assert (code, out.strip()) == (0, "0")
    code, payload = run_json(capsys, "arf", '{"basis_values": [1, 1]}')
    assert (code, payload) == (0, {"arf": 1})


def test_arf_with_explicit_gram(capsys):
    blob = json.dumps({"basis_values": [1, 1],
                       "gram": [[0, 1], [1, 0]]})
    code, payload = run_json(capsys, "arf", blob)
    assert (code, payload) == (0, {"arf": 1})


def test_stabilizer_and_orbit(capsys):
    code, payload = run_json(capsys, "stabilizer", '{"basis_values": [0, 0]}')
    assert code == 0
    assert payload["order"] == 2
    assert [[0, 1], [1, 0]] in payload["elements"]
    code, payload = run_json(capsys, "orbit", '{"basis_values": [0, 0]}')
    assert code == 0 and payload["order"] == 3
    code, out, _ = run(capsys, "orbit", '{"basis_values": [1, 1]}')
    assert code == 0 and out.splitlines()[0] == "order 1"


def test_enumerate_sp(capsys):
    code, payload = run_json(capsys, "enumerate-sp", "--k", "1")
    assert code == 0 and payload["order"] == 6 and len(payload["elements"]) == 6
    code, payload = run_json(capsys, "enumerate-sp", "--k", "2", "--count")
    assert code == 0 and payload["order"] == 720 and "elements" not in payload


def test_member(capsys):
    code, out, _ = run(capsys, "member", '{"rows":[[2,-1],[1,0]]}')
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "member", '{"rows":[[1,1],[0,1]]}')
    assert (code, out.strip()) == (0, "false")
    code, payload = run_json(capsys, "member", '{"rows":[[1,0],[0,1]]}')
    assert payload == {"member": True}


def test_member_domain_and_parse_errors(capsys):
    code, _, err = run(capsys, "member", '{"rows":[[1,1],[1,1]]}')
    assert code == 1 and "determinant" in err
    code, _, err = run(capsys, "member", "{bad json")
    assert code == 2
    code, _, err = run(capsys, "member", '{"cols": []}')
    assert code == 2  # a missing field is malformed input


def test_mod2(capsys):
    assert run(capsys, "mod2", '{"rows":[[1,2],[0,1]]}')[1].strip() == "Id"
    assert run(capsys, "mod2", '{"rows":[[0,-1],[1,0]]}')[1].strip() == "V"
    assert run(capsys, "mod2", '{"rows":[[1,1],[1,2]]}')[1].strip() == "Other"


def test_decompose_roundtrip(capsys):
    code, payload = run_json(capsys, "decompose", '{"rows":[[2,-1],[1,0]]}')
    assert code == 0
    code2, out, _ = run(capsys, "eval-word", payload["word"])
    assert code2 == 0
    assert out.strip() == "2 -1 / 1 0"


def test_decompose_rejects_nonmember(capsys):
    code, _, err = run(capsys, "decompose", '{"rows":[[1,1],[0,1]]}')
    assert code == 1 and "odd" in err


def test_eval_word(capsys):
    code, payload = run_json(capsys, "eval-word", "V^4")
    assert payload == {"rows": [[1, 0], [0, 1]]}
    code, payload = run_json(capsys, "eval-word", "- e")
    assert payload == {"rows": [[-1, 0], [0, -1]]}
    code, _, err = run(capsys, "eval-word", "V x T")
    assert code == 2 and "bad token" in err


def test_coset_enum(capsys):
    code, payload = run_json(
        capsys, "coset-enum", "gens: a,b; rels: a^2, b^2, [a,b]")
    assert (code, payload["order"]) == (0, 4)
    code, _, err = run(capsys, "coset-enum",
                       "gens: V,T; rels: V^4, V^2 T V^-2 T^-1",
                       "--max-cosets", "500")
    assert code == 1 and "abelianization Z4 + Z" in err
    code, _, err = run(capsys, "coset-enum", "gens a b")
    assert code == 2
    assert run(capsys, "coset-enum", "gens: a,b; rels: a^2, b^2, [a, b]") == (0, "order 4\n", "")
    assert run(capsys, "coset-enum", "gens: a,b; rels: a^2, b^2, [a,b]^2") == (0, "order 8\n", "")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_coset_enum_rejects_non_positive_cap(capsys, cap):
    code, out, err = run(capsys, "coset-enum", "gens: a; rels: a^2",
                         "--max-cosets", cap)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and cap in err


@pytest.mark.parametrize("exponent", ["99999999999", "10001"])
def test_coset_enum_refuses_relators_past_the_letter_cap(capsys, exponent):
    """Refused before the relator is expanded, so a^99999999999 allocates
    nothing."""
    code, out, err = run(capsys, "coset-enum", f"gens: a; rels: a^{exponent}")
    assert (code, out) == (1, "")
    assert err == f"error: relators expand past the cap of 10000 letters at 'a^{exponent}'\n"


def test_coset_enum_refuses_an_order_above_64_before_enumerating(capsys):
    """a^2000 is cyclic of order 2000 by its abelianization, and is refused
    before any coset is enumerated."""
    code, out, err = run(capsys, "coset-enum", "gens: a; rels: a^2000")
    assert (code, out) == (1, "")
    assert err == "error: order 2000 outside supported range 1..64\n"


def traced_run(capsys, *argv):
    """run() under tracemalloc, with the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        return (*result, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


BLOCK_CAP = ambient_geom.MAX_BLOCK_DIM
ABOVE_BLOCK_CAP = str(BLOCK_CAP + 2)  # even, so the hat variant reaches the cap check


@pytest.mark.parametrize("argv", [
    ["build-omega", "--p", ABOVE_BLOCK_CAP],
    ["build-omega", "--variant", "hat", "--p", ABOVE_BLOCK_CAP],
    ["build-omega", "--variant", "prime", "--p", "2", "--q", ABOVE_BLOCK_CAP],
    ["induced-action", "--variant", "plain", "--p", ABOVE_BLOCK_CAP],
])
def test_ambient_builders_refuse_a_block_dimension_past_the_cap(capsys, argv):
    """Refused before a matrix entry is built: the call allocates next to
    nothing, where 2p + 3 entries would take megabytes."""
    code, out, err, peak = traced_run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: block dimension {ABOVE_BLOCK_CAP} exceeds the cap of {BLOCK_CAP}\n"
    assert peak < 100_000


@pytest.mark.parametrize("command", ["arf", "orbit", "stabilizer"])
def test_refinement_commands_refuse_a_standard_space_past_the_cap(capsys, command):
    """Without a gram the space is the standard one of half the basis
    values' length; past the cap no Gram matrix is built."""
    k = f2_forms.MAX_STANDARD_K + 1
    code, out, err, peak = traced_run(capsys, command, json.dumps({"basis_values": [0] * 2 * k}))
    assert (code, out) == (1, "")
    assert err == f"error: k = {k} exceeds the cap of {f2_forms.MAX_STANDARD_K}\n"
    assert peak < 100_000


def test_non_object_or_non_list_json_exits_2(capsys):
    for argv in (["member", "[1,2]"],
                 ["arf", '{"basis_values":5}'],
                 ["arf", '{"basis_values":[0,0],"gram":5}'],
                 ["isomorphic", '{"table":5}', "klein"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_booleans_and_non_integer_entries_exit_2(capsys):
    for argv in (["member", '{"rows":[[true,0],[0,true]]}'],
                 ["arf", '{"basis_values":[true,false]}'],
                 ["induced-action", '{"size":3,"entries":[[0,"a",1],[1,1,1],[2,2,1]]}',
                  "--p", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


# wrong JSON types exit 2, wrong values exit 1
WRONG_TYPES = [
    ["member", '{"cols": []}'],
    ["member", '{"rows": [["a", 0], [0, 1]]}'],
    ["member", '{"rows": [[1.0, 0], [0, 1]]}'],
    ["member", '{"rows": [[null, 0], [0, 1]]}'],
    ["arf", '{"basis_values": ["a", 0]}'],
    ["arf", '{"basis_values": [0, 0], "gram": [[0, "1"], [1, 0]]}'],
    ["isomorphic", '{"table": [[0, "a"], [1, 0]]}', "klein"],
    ["induced-action", '{"size": "3", "entries": [[0, 0, 1], [1, 1, 1], [2, 2, 1]]}',
     "--p", "1"],
]
WRONG_VALUES = [
    ["member", '{"rows": [[1, 0], [0, 0]]}'],
    ["isomorphic", '{"table": [[0, 1], [0, 1]]}', "klein"],
    ["arf", '{"basis_values": [2, 0]}'],
]


@pytest.mark.parametrize("argv, code", [(a, 2) for a in WRONG_TYPES]
                         + [(a, 1) for a in WRONG_VALUES],
                         ids=[" ".join(a) for a in WRONG_TYPES + WRONG_VALUES])
def test_exit_code_follows_json_types_then_values(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_isomorphic(capsys):
    code, out, _ = run(capsys, "isomorphic", "dihedral:8", "quaternion:8")
    assert (code, out.strip()) == (0, "false")
    code, payload = run_json(capsys, "isomorphic", "e-even",
                             json.dumps({"table": [[0]]}))
    assert payload == {"isomorphic": False, "witness": None}
    code, payload = run_json(capsys, "isomorphic", "klein", "klein")
    assert payload["isomorphic"] is True
    assert sorted(payload["witness"]) == [0, 1, 2, 3]
    code, _, err = run(capsys, "isomorphic", "octonion:8", "klein")
    assert code == 2


def test_build_omega(capsys):
    code, payload = run_json(capsys, "build-omega", "--p", "3")
    assert code == 0 and payload["size"] == 9
    assert payload["entries"][0] == [0, 0, -1]
    code, out, _ = run(capsys, "build-omega", "--p", "4", "--variant", "hat")
    assert code == 0 and "order 2" in out
    code, payload = run_json(capsys, "build-omega", "--p", "2",
                             "--variant", "prime", "--q", "5")
    assert code == 0 and payload["size"] == 10
    code, _, err = run(capsys, "build-omega", "--p", "3", "--variant", "hat")
    assert code == 1 and "even" in err


def test_induced_action(capsys):
    code, payload = run_json(capsys, "induced-action", "--variant", "plain",
                             "--p", "5")
    assert payload == {"rows": [[0, -1], [1, 0]]}
    code, payload = run_json(capsys, "induced-action", "--variant", "prime",
                             "--p", "4")
    assert payload == {"rows": [[-1, 0], [0, -1]]}
    mat = json.dumps({"size": 5, "entries":
                      [[0, 0, -1], [1, 3, 1], [2, 4, 1], [3, 1, -1], [4, 2, 1]]})
    code, payload = run_json(capsys, "induced-action", mat, "--p", "1")
    assert (code, payload) == (0, {"rows": [[0, -1], [1, 0]]})
    code, _, err = run(capsys, "induced-action", mat)
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "induced-action")
    assert code == 2


def test_families_copy_the_classifier_kinds():
    """`cli` keeps its own copy so that start-up does not import
    `classifier`; the keys, in order, are the --family choices."""
    from extmcg.classifier import KnotFamily

    want = {kind: spec[0] for kind, spec in KnotFamily._KINDS.items()}
    assert list(cli.FAMILIES.items()) == list(want.items())


def test_classify(capsys):
    code, payload = run_json(capsys, "classify", "--family", "equal-product",
                             "--p", "4")
    assert code == 0
    assert payload["total"] == "D8xZ2"
    assert payload["image"] == payload["kernel"] == "Z2xZ2"
    assert payload["splits"] is True
    code, out, _ = run(capsys, "classify", "--family", "unknot-sphere",
                       "--n", "7")
    assert code == 0 and "trivial" in out
    code, payload = run_json(capsys, "classify", "--family", "unequal-product",
                             "--p", "2", "--q", "5")
    assert payload["image"] == "Z2" and payload["total"] is None
    assert payload["total_reason"]
    code, payload = run_json(capsys, "classify", "--family", "adjacent-product",
                             "--p", "14")
    assert payload["total"] == "Z2xZ2"


def test_classify_errors(capsys):
    code, _, err = run(capsys, "classify", "--family", "equal-product")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "classify", "--family", "adjacent-product",
                       "--p", "13")
    assert code == 1 and "congruent" in err
    code, _, err = run(capsys, "classify", "--family", "unknot-sphere",
                       "--n", "3")
    assert code == 1


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_all(capsys):
    code, payload = run_json(capsys, "verify-all")
    assert code == 0
    assert len(payload) == 8
    assert all(entry["passed"] for entry in payload)
    names = [entry["name"] for entry in payload]
    assert "symplectic-census" in names and "classification-table" in names


SRC = Path(__file__).resolve().parent.parent / "src"


def cold(*args):
    """Run a fresh interpreter that imports extmcg from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def cold_extmcg_modules(argv):
    """Run one call in a fresh interpreter: its first output line, exit
    code, and the extmcg modules loaded before and after it."""
    proc = cold("-c", f"""if True:
        import json, sys
        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "extmcg")
        from extmcg import cli
        before = loaded()
        code = cli.main({argv!r})
        print(json.dumps([code, before, loaded()]))
    """)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    code, before, after = json.loads(lines[-1])
    assert before == ["extmcg", "extmcg.cli", "extmcg.errors"]
    return lines[0], code, after


def test_cold_cli_imports_only_the_module_it_runs():
    out, code, after = cold_extmcg_modules(["eval-word", "V T^2"])
    assert (out, code) == ("0 -1 / 1 4", 0)
    assert after == ["extmcg", "extmcg.cli", "extmcg.errors", "extmcg.sl2z"]


@pytest.mark.parametrize("argv, out", [
    (["build-omega", "--p", "3"], "size 9, determinant 1, order 4"),
    (["induced-action", "--variant", "hat", "--p", "4"], "0 1 / 1 0"),
], ids=["build-omega", "induced-action"])
def test_cold_ambient_calls_do_not_load_sl2z(argv, out):
    first, code, after = cold_extmcg_modules(argv)
    assert (first, code) == (out, 0)
    assert after == ["extmcg", "extmcg.ambient_geom", "extmcg.cli", "extmcg.errors",
                     "extmcg.smallgrp"]


@pytest.mark.parametrize("flags, out, extra", [
    (["unknot-sphere", "--n", "5"], "S^5 in S^7", []),
    (["equal-product", "--p", "1"], "S^1 x S^1 in S^4", []),
    (["equal-product", "--p", "4"], "S^4 x S^4 in S^10", []),
    (["unequal-product", "--p", "2", "--q", "5"], "S^2 x S^5 in S^9", []),
    (["adjacent-product", "--p", "14"], "S^12 x S^13 in S^27", []),
], ids=["unknot-sphere", "equal-product-odd", "equal-product-even", "unequal-product",
        "adjacent-product"])
def test_cold_classify_loads_only_smallgrp(flags, out, extra):
    first, code, after = cold_extmcg_modules(["classify", "--family", *flags])
    assert (first, code) == (out, 0)
    assert after == sorted(["extmcg", "extmcg.classifier", "extmcg.cli", "extmcg.errors",
                            "extmcg.smallgrp", *extra])


@pytest.mark.parametrize("argv", [["eval-word", "V^x"], ["coset-enum", "gens a"]])
def test_cold_parse_errors_exit_2(argv):
    proc = cold("-m", "extmcg.cli", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cold_help_lists_every_subcommand():
    proc = cold("-m", "extmcg.cli", "--help")
    assert proc.returncode == 0
    subcommands = ("arf", "stabilizer", "orbit", "enumerate-sp", "member", "mod2",
                   "decompose", "eval-word", "coset-enum", "isomorphic", "build-omega",
                   "induced-action", "classify", "verify-all")
    assert "{" + ",".join(subcommands) + "}" in proc.stdout


def test_package_loads_submodules_on_first_use():
    proc = cold("-c", """if True:
        import sys
        import extmcg
        assert "extmcg.f2_forms" not in sys.modules
        assert extmcg.f2_forms.arf.__module__ == "extmcg.f2_forms"
        from extmcg import sl2z
        assert sl2z is sys.modules["extmcg.sl2z"]
        try:
            extmcg.nope
        except AttributeError as exc:
            assert "nope" in str(exc)
        else:
            raise SystemExit("extmcg.nope did not raise AttributeError")
        namespace = {}
        exec("from extmcg import *", namespace)
        assert all(name in namespace for name in extmcg.__all__)
    """)
    assert proc.returncode == 0, proc.stderr


VERIFY_ALL_TEXT = """\
PASS membership-characterization [mod2-membership,arf-zero-standard]: 308 unimodular matrices checked; stabilizer [((0, 1), (1, 0)), ((1, 0), (0, 1))]
PASS symplectic-census [sp-census]: |Sp(2,2)| = 6, |Sp(4,2)| = 720; Arf split 10/6; Arf 0: orbit 10 x stabilizer 72; Arf 1: orbit 6 x stabilizer 120
PASS coset-enumeration [d8-presentation,gammav2-presentation]: presented group order 8; dihedral True, quaternion False; model order 16, matches D8 x Z2: True; quotient by <delta1, delta2> is Klein: True; abelianization Z4 + Z, so infinite
PASS word-algebra [gammav2-presentation]: relations hold; roundtrip failures 0/1000; 380 normal forms of length <= 6, no collisions
PASS ambient-matrices [omega-action,omega-hat-action,omega-prime-action]: omega p in 3..9: det +1, order 4, quarter turn; omega-hat / omega-prime p in 4..8: det +1, order 2; even actions generate order 4, exponent 2
PASS classification-table [unknot-trivial,odd-total,even-total,dim2-image,unequal-image,adjacent-split]: 21 rows checked
PASS homotopy-tables [so-tables]: tables agree on p in 3..34; 5/5 domain errors raised
PASS property-suites [arf-census,mod2-membership,gammav2-presentation]: quadratic identity exhausted on dims 2..8; 23 group tables validated; closure failures 0/1000; Arf transport-invariant over Sp(2,2) and Sp(4,2); majority oracle agrees on all refinements
"""


@pytest.mark.parametrize("flags", [[], ["-O"], ["-W", "error"]],
                         ids=["plain", "-O", "-W error"])
def test_cold_verify_all_text_is_golden(flags):
    """A speed change must leave the eight report lines byte-identical,
    also with assert statements stripped and with warnings as errors."""
    proc = cold(*flags, "-m", "extmcg.cli", "verify-all")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == VERIFY_ALL_TEXT


# one representative call of every subcommand but verify-all; eval-word
# comes first and prints no JSON, so json must still be unloaded after it
REPRESENTATIVE_CALLS = [
    ["eval-word", "V"],
    ["arf", '{"basis_values": [1, 1]}'],
    ["stabilizer", '{"basis_values": [0, 0]}', "--json"],
    ["orbit", '{"basis_values": [0, 0, 1, 1]}'],
    ["enumerate-sp", "--k", "1"],
    ["member", '{"rows": [[1, 2], [0, 1]]}'],
    ["mod2", '{"rows": [[0, -1], [1, 0]]}'],
    ["decompose", '{"rows": [[1, 2], [0, 1]]}'],
    ["coset-enum", "gens: a, b; rels: a^2, b^4, a b a b"],
    ["isomorphic", "klein", "cyclic:4"],
    ["build-omega", "--p", "3"],
    ["induced-action", "--variant", "hat", "--p", "4"],
    ["classify", "--family", "equal-product", "--p", "4"],
]


def test_cold_calls_import_no_dataclasses_and_json_only_when_used():
    proc = cold("-c", f"""if True:
        import sys
        from extmcg import cli
        codes, after_eval_word = [], None
        for argv in {REPRESENTATIVE_CALLS!r}:
            codes.append(cli.main(argv))
            if after_eval_word is None:
                after_eval_word = "json" in sys.modules
        print("REPORT", codes, after_eval_word,
              sorted(m for m in ("dataclasses", "inspect", "argparse", "gettext", "locale")
                     if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.splitlines()[-1]
    assert report == f"REPORT {[0] * len(REPRESENTATIVE_CALLS)} False []"
    assert len({argv[0] for argv in REPRESENTATIVE_CALLS}) == 13


TOP_USAGE = """\
usage: extmcg [-h]
              {arf,stabilizer,orbit,enumerate-sp,member,mod2,decompose,eval-word,coset-enum,isomorphic,build-omega,induced-action,classify,verify-all}
              ...
"""

PARSER_EDGE_CASES = [
    (["eval-word", "V", "--bogus"], 2, "",
     TOP_USAGE + "extmcg: error: unrecognized arguments: --bogus\n"),
    (["arf"], 2, "",
     "usage: extmcg arf [-h] [--json] refinement\n"
     "extmcg arf: error: the following arguments are required: refinement\n"),
    (["nope"], 2, "",
     TOP_USAGE + "extmcg: error: argument command: invalid choice: 'nope' (choose from "
     "'arf', 'stabilizer', 'orbit', 'enumerate-sp', 'member', 'mod2', 'decompose', "
     "'eval-word', 'coset-enum', 'isomorphic', 'build-omega', 'induced-action', "
     "'classify', 'verify-all')\n"),
    (["arf", "--help"], 0,
     "usage: extmcg arf [-h] [--json] refinement\n\n"
     "positional arguments:\n"
     '  refinement  {"basis_values": [...], "gram": optional}\n\n'
     "options:\n"
     "  -h, --help  show this help message and exit\n"
     "  --json      emit JSON\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", PARSER_EDGE_CASES,
                         ids=[" ".join(case[0]) for case in PARSER_EDGE_CASES])
def test_cold_parser_edge_cases_are_golden(monkeypatch, argv, code, out, err):
    """Building one subparser must not change any usage or error text."""
    monkeypatch.setenv("COLUMNS", "80")
    proc = cold("-m", "extmcg.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def argparse_vars(argv):
    """vars() of the namespace argparse reads from argv, or None where it
    prints help or a usage error and exits."""
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


MAT = '{"size": 5, "entries": [[0, 0, -1], [1, 3, 1], [2, 4, 1], [3, 1, -1], [4, 2, 1]]}'

# well-formed calls the reader reads itself: options before, between and
# after positionals, and "-" tokens that argparse takes as positionals
READ_BY_READER = [
    ["coset-enum", "--max-cosets", "50", "gens: a; rels: a^2"],
    ["coset-enum", "gens: a; rels: a^2", "--max-cosets", "50", "--json"],
    ["coset-enum", "--json", "gens: a; rels: a^2", "--max-cosets", "50"],
    ["isomorphic", "klein", "--json", "cyclic:4"],
    ["isomorphic", "--json", "klein", "cyclic:4"],
    ["induced-action", "--p", "1", MAT],
    ["induced-action", MAT, "--json", "--p", "1", "--q", "2"],
    ["induced-action", "--json", "--variant", "hat", "--p", "4"],
    ["classify", "--p", "4", "--family", "equal-product", "--json"],
    ["enumerate-sp", "--count", "--k", " 2"],
    ["build-omega", "--variant", "prime", "--q", "+5", "--p", "2"],
    ["eval-word", "- V T"],
    ["eval-word", "-- V"],
    ["eval-word", "--help V"],
    ["eval-word", "-x y=z"],
    ["eval-word", ""],
    ["verify-all", "--json"],
]

# calls the reader leaves to argparse: help, usage errors, and forms it
# does not read although argparse accepts some of them
LEFT_TO_ARGPARSE = [
    [], ["--json", "arf", "{}"], ["eval"], ["enumerate-sp", "--cou", "--k", "1"],
    ["enumerate-sp", "--k=2"], ["eval-word", "--", "V"], ["arf", "-h"],
    ["eval-word", "V", "--help"], ["eval-word", "-h V"], ["build-omega", "--p", "3", "--p", "5"],
    ["member", "{}", "--json", "--json"], ["build-omega", "--p", "-3"], ["eval-word", "-"],
    ["eval-word", "-3"], ["eval-word", "--json=1 2"], ["enumerate-sp", "--k", "x"],
    ["enumerate-sp", "--k"], ["enumerate-sp", "--k", "--count"],
    ["build-omega", "--p", "3", "--variant", "bogus"], ["classify", "--p", "4"],
    ["isomorphic", "klein", "klein", "klein"], ["isomorphic", "klein"],
    ["verify-all", "extra"], ["induced-action", MAT, MAT],
]


def test_reader_agrees_with_argparse():
    golden = [r["argv"] for r in json.loads(
        (Path(__file__).parent / "golden" / "cli.json").read_text())]
    read = 0
    for argv in golden:
        got = cli._read_argv(argv)
        if got is not None:
            assert vars(got) == argparse_vars(argv), argv
            read += 1
    # the other 32 are help, usage errors and three negative option values
    assert (read, len(golden)) == (246, 278)
    for argv in READ_BY_READER:
        got = cli._read_argv(argv)
        assert got is not None and vars(got) == argparse_vars(argv), argv
    for argv in LEFT_TO_ARGPARSE:
        assert cli._read_argv(argv) is None, argv


def test_subcommand_table_uses_only_what_the_reader_reads():
    """A keyword or form the reader does not know (nargs="+", a short flag,
    a second flag name) must fail here instead of reading differently."""
    for name, (_, arguments) in cli._SUBCOMMANDS.items():
        optional_seen = False
        for flags, kwargs in arguments:
            assert len(flags) == 1, (name, flags)
            flag = flags[0]
            if flag.startswith("-"):
                assert flag.startswith("--") and flag != "--json", (name, flag)
                assert set(kwargs) <= {"help", "type", "required", "choices", "default",
                                       "action"}, (name, flag)
                assert kwargs.get("type", int) is int
                assert kwargs.get("action", "store_true") == "store_true"
            else:
                assert set(kwargs) <= {"help", "nargs"}, (name, flag)
                assert kwargs.get("nargs", "?") == "?"
                # the reader fills positionals left to right
                assert "nargs" in kwargs or not optional_seen, (name, flag)
                optional_seen = "nargs" in kwargs


UNREAD_OPTIONS = [
    (["eval-word", "-"], "error: a sign needs a word after it; use '- e' for -Id\n"),
    (["induced-action", MAT, "--variant", "hat", "--p", "1"],
     "error: give a sparse matrix JSON or --variant, not both\n"),
    (["build-omega", "--p", "3", "--q", "9"],
     "error: --q is read only with --variant prime, not plain\n"),
    (["build-omega", "--p", "4", "--variant", "hat", "--q", "4"],
     "error: --q is read only with --variant prime, not hat\n"),
    (["classify", "--family", "unknot-sphere", "--n", "5", "--p", "3"],
     "error: unknot-sphere does not read --p\n"),
    (["classify", "--family", "equal-product", "--p", "4", "--n", "5", "--q", "6"],
     "error: equal-product does not read --n or --q\n"),
]


@pytest.mark.parametrize("argv, err", UNREAD_OPTIONS,
                         ids=["sign-alone", "matrix-and-variant", "q-with-plain",
                              "q-with-hat", "p-for-unknot", "n-and-q-for-equal"])
def test_a_sign_alone_or_an_option_the_call_does_not_read_exits_2(capsys, argv, err):
    """An input the call would drop or misread is malformed input: one
    line on stderr, no output, exit 2."""
    assert run(capsys, *argv) == (2, "", err)
