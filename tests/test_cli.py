"""Command line behavior: output shapes, determinism, exit codes."""

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


# ------------------------------------------------------------------ bt


def test_bt_neighbors(capsys):
    code, obj = run_json(capsys, "bt", "neighbors", "--l", "2", "--v",
                         "2:[[1,0],[0,1]]")
    assert code == 0
    assert obj["neighbors"] == [
        "2:[[1,0],[0,2]]",
        "2:[[1,1],[0,2]]",
        "2:[[2,0],[0,1]]",
    ]


def test_bt_neighbors_prime_mismatch(capsys):
    code, _ = run(capsys, "bt", "neighbors", "--l", "3", "--v",
                  "2:[[1,0],[0,1]]")
    assert code == 2


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


def test_bt_center_empty_file(capsys, tmp_path):
    empty = tmp_path / "none.txt"
    empty.write_text("", encoding="utf-8")
    code, _ = run(capsys, "bt", "center", "--vertices", str(empty))
    assert code == 3


# ------------------------------------------------------------- descent


def test_descent_run_single(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, obj = run_json(capsys, "descent", "run",
                         str(DATA / "swap5.json"), "--report", str(out))
    assert code == 0
    assert obj["N"] == 5 and obj["cocycle"] == {"s": [5]}
    written = out.read_text(encoding="utf-8")
    assert json.loads(written) == obj


def test_descent_run_check_failure_still_writes(capsys, tmp_path):
    code, obj = run_json(capsys, "descent", "run",
                         str(DATA / "fixed_pair2.json"),
                         "--report", str(tmp_path / "r.json"))
    assert code == 5
    assert obj["checks"]["minimality"] is False
    assert (tmp_path / "r.json").exists()


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


def test_descent_run_report_needs_single_file(capsys):
    code, _ = run(capsys, "descent", "run", str(DATA / "swap5.json"),
                  str(DATA / "trivial.json"), "--report", "x.json")
    assert code == 2


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


# ---------------------------------------------------------------- misc


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QMTREE_SEED", "7")
    _, via_env = run(capsys, "ideals", "norm-l", "--l", "5")
    monkeypatch.delenv("QMTREE_SEED")
    _, via_flag = run(capsys, "ideals", "norm-l", "--l", "5",
                      "--seed", "7")
    assert via_env == via_flag


def test_seed_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("QMTREE_SEED", "pi")
    code, _ = run(capsys, "order", "eichler", "--level", "5")
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qmtree", "qa", "info", "--a", "-2",
         "--b", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["discriminant"] == 10
