"""Command line behavior: output shapes, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from qmtree import orders as od
from qmtree.cli import main
from qmtree.quaternion import QuaternionAlgebra, is_prime

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ------------------------------------------------------------------ qa


def test_qa_info(capsys):
    code, obj = run_json(capsys, "qa", "info", "--a", "-1", "--b", "3")
    assert code == 0
    assert obj["discriminant"] == 6
    assert obj["ramifiedPrimes"] == [2, 3]
    assert obj["indefinite"] is True
    assert obj["split"] is False


def test_qa_info_split_algebra(capsys):
    code, obj = run_json(capsys, "qa", "info", "--a", "1", "--b", "1")
    assert code == 0
    assert obj["discriminant"] == 1
    assert obj["split"] is True


def test_qa_info_rational_input(capsys):
    code, obj = run_json(capsys, "qa", "info", "--a=-1/4", "--b", "27")
    assert code == 0
    # square-class invariance: same algebra data as (-1, 3)
    assert obj["discriminant"] == 6


@pytest.mark.parametrize("flag,value", [("--a", "-1/2"), ("--b", "-2e3"),
                                        ("--a", "-.5")])
def test_negative_rational_as_a_separate_token(capsys, flag, value):
    other = "--b" if flag == "--a" else "--a"
    apart = run(capsys, "qa", "info", flag, value, other, "3")
    joined = run(capsys, "qa", "info", f"{flag}={value}", other, "3")
    assert apart == joined and apart[0] == 0


def test_flag_followed_by_a_flag_still_misses_its_value(capsys):
    with pytest.raises(SystemExit) as err:
        main(["qa", "info", "--a", "--b", "3"])
    assert err.value.code == 2
    assert "--a: expected one argument" in capsys.readouterr().err


def test_qa_info_zero_is_usage_error(capsys):
    code, _ = run(capsys, "qa", "info", "--a", "0", "--b", "3")
    assert code == 2


def test_bad_rational_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["qa", "info", "--a", "zz", "--b", "3"])
    assert err.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["qa", "info", "--nope", "1"])
    assert err.value.code == 2


# --------------------------------------------------------------- order


def test_order_maximal(capsys):
    code, obj = run_json(capsys, "order", "maximal")
    assert code == 0
    assert obj["reducedDiscriminant"] == 6
    assert len(obj["order"]["basis"]) == 4


def test_order_eichler(capsys):
    code, obj = run_json(capsys, "order", "eichler", "--level", "5")
    assert code == 0
    assert obj["reducedDiscriminant"] == 30


def test_order_eichler_bad_level(capsys):
    code, _ = run(capsys, "order", "eichler", "--level", "4")
    assert code == 3


def test_order_file_roundtrip(capsys, tmp_path):
    code, obj = run_json(capsys, "order", "maximal")
    path = tmp_path / "order.json"
    path.write_text(json.dumps(obj["order"]), encoding="utf-8")
    code, disc = run_json(capsys, "order", "discriminant", "--order",
                          str(path))
    assert code == 0 and disc["reducedDiscriminant"] == 6
    code, ver = run_json(capsys, "order", "verify", "--order", str(path))
    assert code == 0 and ver["isOrder"] is True and ver["problems"] == []


def test_order_verify_reports_problems(capsys, tmp_path):
    code, obj = run_json(capsys, "order", "maximal")
    broken = obj["order"]
    broken["basis"][0] = ["1/7", "0", "0", "0"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    code, ver = run_json(capsys, "order", "verify", "--order", str(path))
    assert code == 0
    assert ver["isOrder"] is False and ver["problems"]


def test_order_verify_needs_algebra_and_basis(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}", encoding="utf-8")
    code, out = run(capsys, "order", "verify", "--order", str(path))
    assert code == 2 and out == ""


def test_order_discriminant_rejects_nonorder(capsys, tmp_path):
    code, obj = run_json(capsys, "order", "maximal")
    broken = obj["order"]
    broken["basis"][0] = ["1/7", "0", "0", "0"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    code, _ = run(capsys, "order", "discriminant", "--order", str(path))
    assert code == 2


# -------------------------------------------------------------- ideals


def test_ideals_norml_counts(capsys):
    code, obj = run_json(capsys, "ideals", "norm-l", "--l", "5")
    assert code == 0
    assert obj["count"] == 6 and len(obj["ideals"]) == 6
    code, obj = run_json(capsys, "ideals", "norm-l", "--l", "2")
    assert code == 0
    assert obj["count"] == 1


def test_ideals_norml_deterministic(capsys):
    _, first = run(capsys, "ideals", "norm-l", "--l", "5")
    _, second = run(capsys, "ideals", "norm-l", "--l", "5")
    assert first == second


def test_ideals_tree_with_dot(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, obj = run_json(capsys, "ideals", "tree", "--l", "5", "--depth",
                         "2", "--dot", str(dot))
    assert code == 0
    assert obj["nodes"] == 37
    assert obj["levels"] == [1, 6, 30]
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert text.count(" -> ") == 36
    first = text
    run(capsys, "ideals", "tree", "--l", "5", "--depth", "2", "--dot",
        str(dot))
    assert dot.read_text(encoding="utf-8") == first


def test_ideals_tree_verify_flag(capsys):
    code, obj = run_json(capsys, "ideals", "tree", "--l", "5", "--depth",
                         "1", "--verify")
    assert code == 0
    assert obj["isomorphism"]["ok"] is True


def test_ideals_oracle(capsys):
    code, obj = run_json(capsys, "ideals", "oracle", "--n", "2")
    assert code == 0
    assert obj["count"] == 1 and obj["primitive"] == 1


def test_ideals_oracle_guard(capsys):
    code, _ = run(capsys, "ideals", "oracle", "--n", "14")
    assert code == 4
    code, _ = run(capsys, "ideals", "oracle", "--n", "0")
    assert code == 3


# sha256 of stdout, frozen before the orders layer moved to integer
# coordinates; these commands reach the hereditary climb step of
# maximalization (at 2, 5 and 19 for (-19, 5)), the splittings, the
# norm-ell pullbacks at split, ramified and
# level primes, and the ideal tree
FROZEN_DIGESTS = [
    (["order", "maximal", "--a", "-19", "--b", "5"],
     "fae2bdc9e192311575f8480bfa785fc38c280af8f54933d02948b62bff527467"),
    (["order", "maximal", "--a", "3", "--b", "7"],
     "a8093c7e096e51e626fc523175ebf979d3a833f660279821f86d0c2ef3a4e350"),
    (["order", "eichler", "--level", "35", "--seed", "0"],
     "a9cf26ea0c3a26b6681ab12c93047a73dfe32b3cd2e591959808f2a7f6c14b4d"),
    (["order", "eichler", "--level", "35", "--seed", "7"],
     "53d1506f7b21c54ba11b0e92d11387c343f50a0287223f29d7bbc6e753c29434"),
    (["ideals", "norm-l", "--l", "2"],
     "bd95d9ed8310fe7e428bf63c7c507c071f88391d15e8dd290e7779cf1b37d25e"),
    (["ideals", "norm-l", "--l", "5"],
     "ac71a3e963bfdabef352ee0da7f09d04cf1fa490c649ab5b04ea17f99708efc7"),
    (["ideals", "norm-l", "--l", "613"],
     "d0b794790616acfaaf0ae2668d30da6a31e39535003eef2d41f603622c680842"),
    (["ideals", "norm-l", "--level", "35", "--l", "5"],
     "45a02f7f9b91e0bc84259a4bdfb5173ec5825c822839627ddeea6c7dd842dc43"),
    # frozen before the norm-ell lines were read off the splitting in
    # closed form: a large split prime, and a split prime over an Eichler
    # order
    (["ideals", "norm-l", "--l", "1009"],
     "fe9dc8bfd84a6b0b64e484cea5870d7a92670d3739f237bf24d6855809e5c195"),
    (["ideals", "norm-l", "--level", "35", "--l", "11"],
     "bf37f8c0c646c3fc9e1c0d6bcc35eb136838f65873a90f6db2efb62a8b360c5c"),
    (["ideals", "tree", "--l", "5", "--depth", "2", "--verify"],
     "42dd8b112d15d3fc8e2dc706d973224b0521ee9e418482c47966151c11643347"),
    # frozen before order structure moved to the integer cleared basis:
    # fractional structure constants (argparse reads a bare -5/2 as an
    # option, hence the =) and a lattice failing all three order conditions
    (["order", "maximal", "--a", "1/2", "--b=-5/2"],
     "a030d530734711ed5bd90c114f08fdde1d246f8e2277c8b6dd3de1c5508fb537"),
    (["order", "eichler", "--a", "1/2", "--b=-5/2", "--level", "21"],
     "42f41c502e872b46ea3c2f1c6af8604408f82629765af857d391ea0d0219de19"),
    (["order", "verify", "--order",
      str(DATA / "orders" / "not_an_order.json")],
     "7eb9a6b690b6415b13cb5799924195ce06b80ba80e55c73e0f074953b69e7fae"),
    # frozen before the algebra factored a and b once: a prime b past the
    # trial bound, and rationals with square factors
    (["qa", "info", "--a=-1", f"--b={10 ** 42 + 63}"],
     "8bef2fd8e45793273c12260ba6b96d90fc83940d4b9c676dcf74334a734b4dea"),
    (["qa", "info", "--a", "12", "--b=-45/7"],
     "98d35f5cd9ffecda95d830a61fcac6319d1c28f449f8697e84b2b46c9e3d2f3d"),
    (["qa", "info", "--a", "50", "--b", "98/3"],
     "576baddcac819c07335870b484bb4f376360414c9dbfc479687210abef8a663a"),
]


@pytest.mark.parametrize("argv,digest", FROZEN_DIGESTS,
                         ids=[" ".join(a).replace(str(DATA), "data")
                              for a, _ in FROZEN_DIGESTS])
def test_output_is_byte_identical_to_the_frozen_digest(capsys, argv,
                                                       digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------------ bt


def test_bt_neighbors(capsys):
    code, obj = run_json(capsys, "bt", "neighbors", "--v", "2:[[1,0],[0,1]]")
    assert code == 0
    assert obj["neighbors"] == [
        "2:[[1,0],[0,2]]",
        "2:[[1,1],[0,2]]",
        "2:[[2,0],[0,1]]",
    ]


def test_bt_neighbors_prime_mismatch(capsys):
    # the prime is read off the vertex literal alone: --l is refused
    with pytest.raises(SystemExit) as err:
        main(["bt", "neighbors", "--l", "3", "--v", "2:[[1,0],[0,1]]"])
    assert err.value.code == 2
    assert "unrecognized arguments: --l 3" in capsys.readouterr().err


def test_bt_neighbors_prime_zero_is_a_mismatch(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bt", "neighbors", "--l", "0", "--v", "2:[[1,0],[0,1]]"])
    assert err.value.code == 2
    assert "unrecognized arguments: --l 0" in capsys.readouterr().err


def test_bt_neighbors_at_the_largest_prime_within_the_line_guard():
    ell = 16381
    assert is_prime(ell) and not any(
        is_prime(p) for p in range(ell + 1, od._MAX_ELL + 1))
    proc = subprocess.run(
        [sys.executable, "-m", "qmtree", "bt", "neighbors", "--v",
         f"{ell}:[[1,0],[0,1]]"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["neighbors"]) == ell + 1
    # frozen before neighbors moved to its closed form
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "68e84a091fdcce04adca82d592bc80f34af93b1004f9ab9e4ebfde3b541680e6")


def test_bt_distance_and_geodesic(capsys):
    code, obj = run_json(capsys, "bt", "distance", "--u", "2:[[1,0],[0,1]]",
                         "--v", "2:[[1,0],[0,4]]")
    assert code == 0 and obj["distance"] == 2
    code, obj = run_json(capsys, "bt", "geodesic", "--u", "2:[[1,0],[0,1]]",
                         "--v", "2:[[1,0],[0,4]]")
    assert code == 0
    assert obj["geodesic"] == [
        "2:[[1,0],[0,1]]",
        "2:[[1,0],[0,2]]",
        "2:[[1,0],[0,4]]",
    ]


def test_bt_distance_mixed_primes(capsys):
    code, _ = run(capsys, "bt", "distance", "--u", "2:[[1,0],[0,1]]",
                  "--v", "3:[[1,0],[0,1]]")
    assert code == 3


def test_bt_bad_vertex(capsys):
    code, _ = run(capsys, "bt", "neighbors", "--v", "2:[[1,0],[1,1]]")
    assert code == 2


BAD_PRIME_OR_SINGULAR = ["6:[[1,0],[0,1]]", "2:[[0,0],[0,1]]"]


@pytest.mark.parametrize("lit", BAD_PRIME_OR_SINGULAR)
def test_bt_vertex_with_bad_prime_or_singular_matrix(capsys, lit):
    code, _ = run(capsys, "bt", "neighbors", "--v", lit)
    assert code == 2


def test_bt_center_file_formats(capsys, tmp_path):
    lines = tmp_path / "verts.txt"
    lines.write_text("2:[[1,0],[0,1]]\n2:[[1,0],[0,4]]\n", encoding="utf-8")
    code, obj = run_json(capsys, "bt", "center", "--vertices", str(lines))
    assert code == 0
    assert obj == {"kind": "vertex", "vertices": ["2:[[1,0],[0,2]]"]}
    as_json = tmp_path / "verts.json"
    as_json.write_text(json.dumps(["2:[[1,0],[0,1]]", "2:[[1,0],[0,2]]"]),
                       encoding="utf-8")
    code, obj = run_json(capsys, "bt", "center", "--vertices", str(as_json))
    assert code == 0
    assert obj["kind"] == "edge"


def test_bt_center_non_string_literal(capsys, tmp_path):
    f = tmp_path / "verts.json"
    f.write_text('[1, "2:[[1,0],[0,1]]"]', encoding="utf-8")
    code, _ = run(capsys, "bt", "center", "--vertices", str(f))
    assert code == 2


def test_bt_geodesic_too_long(capsys):
    code, _ = run(capsys, "bt", "geodesic", "--u", "2:[[1,0],[0,1]]",
                  "--v", f"2:[[1,0],[0,{2 ** 3000}]]")
    assert code == 4


def test_qa_info_unfactorable_b(capsys):
    code, _ = run(capsys, "qa", "info", "--a", "-1",
                  "--b", str(1000003 * 1000033))
    assert code == 4


def test_qa_info_refuses_psi_12():
    # 399165290221 * 798330580441, the least strong pseudoprime to the
    # bases 2..37: taken for a prime, it gave a wrong discriminant, exit 0
    proc = subprocess.run(
        [sys.executable, "-m", "qmtree", "qa", "info", "--a", "-38",
         "--b", "318665857834031151167461"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot factor")


def test_bt_center_empty_file(capsys, tmp_path):
    empty = tmp_path / "none.txt"
    empty.write_text("", encoding="utf-8")
    code, _ = run(capsys, "bt", "center", "--vertices", str(empty))
    assert code == 3


# ------------------------------------------------------------- descent


def test_descent_run_single(capsys):
    code, obj = run_json(capsys, "descent", "run", str(DATA / "swap5.json"))
    assert code == 0
    assert obj["N"] == 5 and obj["cocycle"] == {"s": [5]}


def test_descent_run_check_failure_still_writes(capsys, tmp_path):
    code, out = run(capsys, "descent", "run", str(DATA / "fixed_pair2.json"),
                    "--report-dir", str(tmp_path))
    assert code == 5
    assert json.loads(out)["checks"]["minimality"] is False
    written = tmp_path / "fixed_pair2.report.json"
    assert written.read_text(encoding="utf-8") == out


def test_descent_run_multi_deterministic(capsys, tmp_path):
    names = ["trivial.json", "swap5.json", "composite_5_7_2.json",
             "twogen_35.json"]
    paths = [str(DATA / n) for n in names]
    code1, out1 = run(capsys, "descent", "run", *paths)
    code2, out2 = run(capsys, "descent", "run", *paths,
                      "--report-dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    for n in names:
        assert (tmp_path / f"{Path(n).stem}.report.json").exists()
    obj = json.loads(out1)
    assert set(obj["reports"]) == set(paths)


def test_descent_run_multi_exit_five(capsys, tmp_path):
    paths = [str(DATA / "swap5.json"), str(DATA / "fixed_pair2.json")]
    code, out = run(capsys, "descent", "run", *paths,
                    "--report-dir", str(tmp_path))
    assert code == 5
    assert (tmp_path / "swap5.report.json").exists()
    assert (tmp_path / "fixed_pair2.report.json").exists()


def test_descent_run_null_vertex(capsys, tmp_path):
    obj = json.loads((DATA / "swap5.json").read_text())
    obj["local"]["5"]["vertices"][0] = None
    path = tmp_path / "null.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, _ = run(capsys, "descent", "run", str(path))
    assert code == 2


def test_descent_run_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "descent", "run", str(bad))
    assert code == 2


def test_descent_run_missing_file(capsys, tmp_path):
    code, _ = run(capsys, "descent", "run", str(tmp_path / "absent.json"))
    assert code == 2


def test_descent_run_invalid_scenario(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "D": 1,
        "generators": ["s"],
        "local": {
            "2": {
                "vertices": ["2:[[1,0],[0,1]]", "2:[[1,0],[0,2]]",
                             "2:[[1,1],[0,2]]"],
                "action": {"s": ["2:[[1,0],[0,2]]", "2:[[1,0],[0,1]]",
                                 "2:[[1,1],[0,2]]"]},
            }
        },
    }), encoding="utf-8")
    code, _ = run(capsys, "descent", "run", str(bad))
    assert code == 2


@pytest.mark.parametrize("lit", BAD_PRIME_OR_SINGULAR)
def test_descent_run_vertex_with_bad_prime_or_singular_matrix(capsys, tmp_path,
                                                             lit):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "D": 1,
        "generators": [],
        "local": {"2": {"vertices": [lit], "action": {}}},
    }), encoding="utf-8")
    assert main(["descent", "run", str(bad)]) == 2
    assert "bad literal" in capsys.readouterr().err


# ------------------------------------------------------ bad arguments

# PAST stands for the least prime above the line-enumeration guard and
# SINGULAR for an order file whose basis has rank 3
BAD_ARGUMENTS = (
    [(["ideals", "norm-l", f"--l={ell}"], 2) for ell in (0, 1, 4, -5)]
    + [(["ideals", "tree", f"--l={ell}", "--depth", depth], 2)
       for ell in (0, 1, 4, -5) for depth in ("0", "1")]
    + [(["ideals", "norm-l", "--l", "PAST"], 4),
       (["ideals", "tree", "--l", "PAST", "--depth", "1"], 4),
       (["bt", "neighbors", "--v", "PAST:[[1,0],[0,1]]"], 4),
       (["ideals", "tree", "--l", "1009", "--depth", "2"], 4),
       (["ideals", "tree", "--l", "101", "--depth", "3"], 4)]
    + [(cmd + [f"--level={level}"], 3)
       for cmd in (["ideals", "norm-l", "--l", "5"],
                   ["ideals", "tree", "--l", "5", "--depth", "1"],
                   ["order", "eichler"])
       for level in (0, -3, 4)]
    + [(["order", "discriminant", "--order", "SINGULAR"], 2)]
)


@pytest.mark.parametrize("argv,want", BAD_ARGUMENTS,
                         ids=[" ".join(a) for a, _ in BAD_ARGUMENTS])
def test_bad_arguments_end_in_an_error_line(capsys, tmp_path, argv, want):
    past = next(p for p in count(od._MAX_ELL + 1) if is_prime(p))
    singular = tmp_path / "singular.json"
    order = od.order_to_json(od.maximal_order(QuaternionAlgebra(-1, 3)))
    order["basis"][3] = order["basis"][2]
    singular.write_text(json.dumps(order), encoding="utf-8")
    argv = [a.replace("PAST", str(past)).replace("SINGULAR", str(singular))
            for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == want
    assert any(line.startswith("error:") for line in err.splitlines())


@pytest.mark.parametrize("argv", [["bt", "center", "--vertices"],
                                  ["descent", "run"],
                                  ["order", "discriminant", "--order"],
                                  ["order", "verify", "--order"]],
                         ids=" ".join)
def test_non_utf8_input_file_ends_in_an_error_line(tmp_path, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe\x00bad")
    proc = subprocess.run([sys.executable, "-m", "qmtree", *argv, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# ------------------------------------------------ the int digit limit

# integers past Python's int <-> str digit limit (4300 digits): a flag, a
# JSON number literal in an order file, a scenario file and a vertex list,
# and an order whose discriminant has too many digits to print
IDENTITY = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
BIG = "7" * 5000
DIGIT_LIMIT = {
    "flag": (["qa", "info", "--a", "1e20000", "--b", "3"], "", 2),
    "order-literal": (
        ["order", "verify", "--order", "FILE"],
        json.dumps({"algebra": {"a": "BIG", "b": 3}, "basis": IDENTITY}),
        2),
    "scenario-literal": (
        ["descent", "run", "FILE"],
        json.dumps({"D": "BIG", "generators": [], "local": {}}), 2),
    "vertex-list-literal": (["bt", "center", "--vertices", "FILE"],
                            json.dumps(["BIG"]), 2),
    "discriminant-output": (
        ["order", "discriminant", "--order", "FILE"],
        json.dumps({"algebra": {"a": "1e2500", "b": "1e2500"},
                    "basis": IDENTITY}), 4),
}


@pytest.mark.parametrize("argv,text,want", DIGIT_LIMIT.values(),
                         ids=DIGIT_LIMIT)
def test_numbers_past_the_digit_limit_end_in_one_error_line(tmp_path, argv,
                                                           text, want):
    path = tmp_path / "input.json"
    path.write_text(text.replace('"BIG"', BIG), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "qmtree",
         *(a.replace("FILE", str(path)) for a in argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == want
    assert "Traceback" not in proc.stderr
    assert len([line for line in proc.stderr.splitlines()
                if "error:" in line]) == 1


# ---------------------------------------------------------------- misc


def test_seed_env_override(capsys, monkeypatch):
    # --seed 7 changes this output (see FROZEN_DIGESTS); QMTREE_SEED=7
    # does not: only the flag sets the seed
    argv = ("order", "eichler", "--level", "35")
    want = run(capsys, *argv)
    assert want != run(capsys, *argv, "--seed", "7")
    monkeypatch.setenv("QMTREE_SEED", "7")
    assert run(capsys, *argv) == want


def test_seed_env_invalid(capsys, monkeypatch):
    # QMTREE_SEED is not read, so a value that is no integer is no error
    argv = ("order", "eichler", "--level", "5")
    want = run(capsys, *argv)
    assert want[0] == 0
    monkeypatch.setenv("QMTREE_SEED", "pi")
    assert run(capsys, *argv) == want


# options that restated another input or changed no output
REMOVED_OPTIONS = {
    "ideals tree --seed": ["ideals", "tree", "--l", "5", "--depth", "1",
                           "--seed", "1"],
    "descent run --report": ["descent", "run", str(DATA / "swap5.json"),
                             "--report", "r.json"],
}


@pytest.mark.parametrize("argv", REMOVED_OPTIONS.values(),
                         ids=REMOVED_OPTIONS)
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qmtree", "qa", "info", "--a", "-2",
         "--b", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["discriminant"] == 10
