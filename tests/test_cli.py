import hashlib
import json
import random
from fractions import Fraction

import pytest

from dilatree import cli as cli_module
from dilatree.cli import build_parser, run
from dilatree.dilation import (PointSet, Tree, Verdict, compare_to_threshold,
                               critical_edges)
from dilatree.fileio import (dump_json, gadget_from_json, load_json,
                             parse_number, points_from_json)
from dilatree.gadget import PartitionSolution, verify_gadget


def cli(*argv):
    try:
        return run(list(argv))
    except SystemExit as exc:        # argparse rejections
        return exc.code


@pytest.fixture
def square(tmp_path):
    pts = tmp_path / "pts.json"
    tr = tmp_path / "tree.json"
    dump_json({"points": [[0, 0], [1, 0], [1, 1], [0, 1]]}, pts)
    dump_json({"edges": [[0, 1], [1, 2], [2, 3]]}, tr)
    return pts, tr


def gen_instance(tmp_path, alphas):
    out = tmp_path / f"inst_{alphas.replace(',', '_')}.json"
    assert cli("gen", "--alphas", alphas, "-o", str(out)) == 0
    return out


# ---------------------------------------------------------------------------
# scenario matrix: every exit code earned the documented way


def test_exit_code_matrix(tmp_path, square):
    pts, tr = square
    yes = gen_instance(tmp_path, "1,1")
    no = gen_instance(tmp_path, "1,1,1")
    tampered = tmp_path / "tampered.json"
    obj = load_json(yes)
    obj["points"][6]["x"] = str(int(obj["points"][6]["x"]) + (1800 << 33))
    dump_json(obj, tampered)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    # malformed shapes: an input error (2), never a certified no (1)
    bad = {}
    for name, obj in [
            ("str_vertex", {"edges": [[0, 1], [1, 2], [2, "3"]]}),
            ("float_vertex", {"edges": [[0, 1], [1, 2], [2, 3.0]]}),
            ("bool_vertex", {"edges": [[0, 1], [1, 2], [True, 3]]}),
            ("edges_int", {"edges": 5}),
            ("points_int", {"points": 5}),
            ("scalar", 5)]:
        bad[name] = tmp_path / f"{name}.json"
        dump_json(obj, bad[name])
    for name, key, value in [("null_weight", "alphas_dot", [None, 1]),
                             ("null_k", "k", None),
                             ("zero_den_k", "k", "1/0")]:
        obj = load_json(yes)
        obj[key] = value
        bad[name] = tmp_path / f"{name}.json"
        dump_json(obj, bad[name])
    obj = load_json(yes)
    obj["points"][0]["x"] = "1/0"
    bad["zero_den_point"] = tmp_path / "zero_den_point.json"
    dump_json(obj, bad["zero_den_point"])
    bad["zero_den_points"] = tmp_path / "zero_den_points.json"
    dump_json({"points": [{"x": "1/0", "y": "0"}, [1, 0], [1, 1], [0, 1]]},
              bad["zero_den_points"])

    scenarios = [
        (["oracle", "--alphas", "1,1"], 0),
        (["oracle", "--alphas", "1,2,4"], 1),
        (["oracle", "--alphas", "500001,500001"], 2),
        (["decide", str(yes)], 0),
        (["decide", str(no)], 1),
        (["decide", str(tmp_path / "absent.json")], 2),
        (["dilation", "--points", str(pts), "--tree", str(tr),
          "--threshold", "3/1"], 0),
        (["dilation", "--points", str(pts), "--tree", str(tr),
          "--threshold", "2/1"], 1),
        (["dilation", "--points", str(pts), "--tree", str(tr),
          "--threshold", "1.5"], 2),
        (["verify", str(yes)], 0),
        (["verify", str(broken)], 2),
        *[(["dilation", "--points", str(pts), "--tree", str(bad[name])], 2)
          for name in ("str_vertex", "float_vertex", "bool_vertex",
                       "edges_int")],
        (["dilation", "--points", str(bad["points_int"]), "--tree",
          str(tr)], 2),
        (["decide", str(bad["null_weight"])], 2),
        (["decide", str(bad["null_k"])], 2),
        (["verify", str(bad["null_k"])], 2),
        (["decide", str(bad["scalar"])], 2),
        *[([cmd, str(bad[name])], 2) for cmd in ("verify", "decide")
          for name in ("zero_den_k", "zero_den_point")],
        (["mdst", "--points", str(bad["zero_den_points"])], 2),
        (["dilation", "--points", str(bad["zero_den_points"]), "--tree",
          str(tr)], 2),
        (["svg", "--points", str(bad["zero_den_points"]), "-o",
          str(tmp_path / "zero_den.svg")], 2),
        (["gen", "--alphas", "1,1", "--k", "60",
          "-o", str(tmp_path / "fine.json")], 0),
        (["witness5", "--seed", "3", "--budget", "10"], 3),
    ]
    for argv, expected in scenarios:
        assert cli(*argv) == expected, argv


@pytest.mark.parametrize("alphas, codes", [
    ((2 ** 75, 2 ** 75), [0, 0, 0]),
    ((2 ** 230, 2 ** 230), [0, 0, 0]),
    ((2 ** 230, 2 ** 230 + 2), [0, 0, 1]),
])
def test_huge_weights_round_trip(tmp_path, alphas, codes):
    # decide reads the weights back exactly, and verify encloses at the
    # gadget's own precision, however large the weights
    inst = tmp_path / "inst.json"
    assert [cli("gen", "--alphas", ",".join(map(str, alphas)),
                "-o", str(inst)),
            cli("verify", str(inst)), cli("decide", str(inst))] == codes


@pytest.mark.parametrize("k", ["42", "60"])
def test_gen_at_a_finer_k_verifies(tmp_path, k):
    inst = tmp_path / "inst.json"
    assert cli("gen", "--alphas", "1,1", "--k", k, "-o", str(inst)) == 0
    assert load_json(inst)["k"] == int(k)
    assert cli("verify", str(inst)) == 0
    assert cli("decide", str(inst)) == 0


def test_precision_arguments_below_range_exit_2(tmp_path, capsys):
    for k in ("5", "-1"):
        assert cli("gen", "--alphas", "1,1", "--k", k,
                   "-o", str(tmp_path / "inst.json")) == 2
        assert "fractional precision too small for the gap" in \
            capsys.readouterr().err
    # an instance file whose k is below rounding_bits (33 for 1,1) is
    # refused by the same check, before anything shifts by k
    yes, coarse = gen_instance(tmp_path, "1,1"), tmp_path / "coarse.json"
    for k in (32, -1):
        obj = load_json(yes)
        obj["k"], obj["scale"] = k, f"1800*2^{k}"
        dump_json(obj, coarse)
        for cmd in ("verify", "decide"):
            assert cli(cmd, str(coarse)) == 2
            assert "fractional precision too small for the gap" in \
                capsys.readouterr().err
    # a gadget file whose choice points claim fewer than 32 bits
    gad = tmp_path / "gadget.json"
    assert cli("gen", "--alphas", "1,1", "-o", str(tmp_path / "inst.json"),
               "--gadget", str(gad)) == 0
    obj = load_json(gad)
    obj["d_bits"] = 3
    dump_json(obj, gad)
    for cmd in ("verify", "decide"):
        assert cli(cmd, str(gad)) == 2
        assert "d_bits must be at least 32" in capsys.readouterr().err
    # the center star of the 2 x 2 square ties its four sides
    pts, star = tmp_path / "pts.json", tmp_path / "star.json"
    dump_json({"points": [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]]}, pts)
    dump_json({"edges": [[0, 4], [1, 4], [2, 4], [3, 4]]}, star)
    assert cli("dilation", "--points", str(pts), "--tree", str(star),
               "--bits", "0") == 2
    assert "bits must be positive" in capsys.readouterr().err


def test_point_missing_a_coordinate_exits_2_naming_it(tmp_path, square,
                                                     capsys):
    _, tr = square
    pts, inst = tmp_path / "missing_y.json", gen_instance(tmp_path, "1,1")
    dump_json({"points": [{"x": 0, "y": 0}, {"x": 1}, [1, 1], [0, 1]]}, pts)
    assert cli("dilation", "--points", str(pts), "--tree", str(tr)) == 2
    assert capsys.readouterr().err.strip() == 'error: point 1 is missing "y"'
    obj = load_json(inst)
    del obj["points"][3]["label"]
    dump_json(obj, inst)
    for cmd in ("verify", "decide"):
        assert cli(cmd, str(inst)) == 2
        assert 'point 3 is missing "label"' in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline behavior


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli("gen", "--alphas", "2,3,5", "-o", str(a)) == 0
    assert cli("gen", "--alphas", "2,3,5", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decide_writes_valid_solution(tmp_path):
    inst = gen_instance(tmp_path, "2,3,5")
    sol_path = tmp_path / "sol.json"
    assert cli("decide", str(inst), "-o", str(sol_path)) == 0
    sol = load_json(sol_path)
    split = PartitionSolution(set(sol["A"]), set(sol["A_prime"]))
    assert split.consistent_with((2, 3, 5))
    data = load_json(inst)
    n_points = len(data["points"])
    tree = Tree(n_points, [tuple(e) for e in sol["edges"]])
    ps = points_from_json(data)
    p, q = int(data["P"]), int(data["Q"])
    assert compare_to_threshold(ps, tree, p, q) is Verdict.AT_MOST


def test_decide_round_trip_matches_reparse(tmp_path, capsys):
    inst = gen_instance(tmp_path, "1,1")
    capsys.readouterr()
    assert cli("decide", str(inst)) == 0
    first = capsys.readouterr().out
    assert cli("decide", str(inst)) == 0
    assert capsys.readouterr().out == first


def test_gadget_file_decides_like_instance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    gad = tmp_path / "gadget.json"
    assert cli("gen", "--alphas", "1,1", "-o", str(inst),
               "--gadget", str(gad)) == 0
    capsys.readouterr()
    assert cli("decide", str(inst)) == 0
    via_instance = capsys.readouterr().out
    assert cli("decide", str(gad)) == 0
    assert capsys.readouterr().out == via_instance


def _gadget_file(tmp_path, alphas):
    gad = tmp_path / f"gadget_{alphas.replace(',', '_')}.json"
    assert cli("gen", "--alphas", alphas, "--k", "40",
               "-o", str(tmp_path / "inst.json"), "--gadget", str(gad)) == 0
    return load_json(gad)


def test_gadget_file_is_audited_against_its_weights(tmp_path, capsys):
    # the choice points of weights 1,9 under the weights 1,1, at the same
    # d_bits: the circles come from the weights, never from the file
    obj, other = _gadget_file(tmp_path, "1,1"), _gadget_file(tmp_path, "1,9")
    for mine, theirs in zip(obj["points"], other["points"]):
        if mine["label"].rstrip("'") in ("d1", "d2"):
            mine.update(theirs)
    swapped = tmp_path / "swapped.json"
    dump_json(obj, swapped)
    capsys.readouterr()
    assert cli("verify", str(swapped)) == 1
    assert "[FAIL] choice-point placement" in capsys.readouterr().out
    assert cli("decide", str(swapped)) == 2
    assert "choice edge 1 does not encode weight 1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("k", [None] + list(range(34, 43)))
def test_choice_points_half_a_weight_off_are_refused(tmp_path, capsys, k):
    # the choice points of 1,3 sit half a weight unit of 1,1 away from
    # the circles of 1,1: no rounding of d_i explains that, at any k
    files = {}
    for alphas in ("1,1", "1,3"):
        tag = alphas.replace(",", "_")
        files[alphas] = tmp_path / f"gadget_{tag}.json"
        argv = ["gen", "--alphas", alphas, "-o", str(tmp_path / f"{tag}.json"),
                "--gadget", str(files[alphas])]
        assert cli(*argv, *(() if k is None else ("--k", str(k)))) == 0
    obj, other = load_json(files["1,1"]), load_json(files["1,3"])
    for mine, theirs in zip(obj["points"], other["points"]):
        if mine["label"].rstrip("'") in ("d1", "d2"):
            mine.update(theirs)
    swapped = tmp_path / "swapped.json"
    dump_json(obj, swapped)
    capsys.readouterr()
    assert cli("decide", str(swapped)) == 2
    assert "choice edge 1 does not encode weight 1" in \
        capsys.readouterr().err
    for path in (files["1,1"], tmp_path / "1_1.json"):
        assert cli("decide", str(path)) == 0


def test_old_gadget_layout_is_refused(tmp_path, capsys):
    obj = _gadget_file(tmp_path, "1,1")
    old = {k: v for k, v in obj.items() if k != "alphas_dot"}
    old.update(n=2, alphas=["1/20", "1/20"], sigma_total="1/10",
               xi="1/8192", d_defs=[])
    path = tmp_path / "old.json"
    dump_json(old, path)
    for cmd in ("verify", "decide"):
        assert cli(cmd, str(path)) == 2
        assert 'gadget file is missing "alphas_dot"' in \
            capsys.readouterr().err


def test_verify_reports_tampered_points(tmp_path, capsys):
    inst = gen_instance(tmp_path, "1,1")
    obj = load_json(inst)
    obj["points"][6]["y"] = str(int(obj["points"][6]["y"]) + 1)
    bad = tmp_path / "bad.json"
    dump_json(obj, bad)
    assert cli("verify", str(bad)) == 1
    out = capsys.readouterr().out
    assert "[FAIL] integer rescaling" in out


def test_verify_json_report(tmp_path):
    inst = gen_instance(tmp_path, "1,1")
    report = tmp_path / "report.json"
    assert cli("verify", str(inst), "--json", str(report)) == 0
    data = load_json(report)
    assert data["passed"] is True
    assert len(data["checks"]) == 7
    assert all(c["passed"] for c in data["checks"])


def test_verify_gadget_file(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    gad = tmp_path / "g.json"
    assert cli("gen", "--alphas", "1,1", "-o", str(inst),
               "--gadget", str(gad)) == 0
    assert cli("verify", str(gad)) == 0
    obj = load_json(gad)
    a1 = next(p for p in obj["points"] if p["label"] == "a1")
    a1["x"] = "3"
    moved = tmp_path / "moved.json"
    dump_json(obj, moved)
    capsys.readouterr()
    assert cli("verify", str(moved)) == 1
    out = capsys.readouterr().out
    for name in ("distance identities", "mirror symmetry", "critical set"):
        assert f"[FAIL] {name}" in out, name


def test_verify_fails_a_gadget_whose_forced_edges_changed(tmp_path, capsys):
    # b1 and b1' moved halfway to a1 and a1', mirror images still: the
    # edges q1 a1, b1 c1 and their mirrors are no longer forced
    gad = tmp_path / "g.json"
    assert cli("gen", "--alphas", "1", "-o", str(tmp_path / "inst.json"),
               "--gadget", str(gad)) == 0
    obj = load_json(gad)
    forced = critical_edges(gadget_from_json(obj).points, 8, 5)
    at = {p["label"]: p for p in obj["points"]}
    for a, b in (("a1", "b1"), ("a1'", "b1'")):
        for c in "xy":
            at[b][c] = str((Fraction(at[a][c]) + Fraction(at[b][c])) / 2)
    bad = gadget_from_json(obj)
    assert forced - critical_edges(bad.points, 8, 5) == {
        (0, 2), (0, 9), (4, 5), (11, 12)}
    assert "critical set" in {c.name for c in verify_gadget(bad).failures()}
    moved = tmp_path / "moved.json"
    dump_json(obj, moved)
    capsys.readouterr()
    assert cli("verify", str(moved)) == 1
    assert "[FAIL] critical set: extra [], missing [(0, 2), (0, 9), " \
        "(4, 5), (11, 12)]" in capsys.readouterr().out


def test_verify_fails_a_gadget_whose_choice_point_moved_out(tmp_path,
                                                          capsys):
    # d1 moved to c1 + 4 (d1 - c1): the detour via b1 gets short enough
    gad = tmp_path / "g.json"
    assert cli("gen", "--alphas", "2,3,5", "-o", str(tmp_path / "i.json"),
               "--gadget", str(gad)) == 0
    obj = load_json(gad)
    at = {p["label"]: p for p in obj["points"]}
    for k in "xy":
        c, d = parse_number(at["c1"][k]), parse_number(at["d1"][k])
        at["d1"][k] = str(c + 4 * (d - c))
    moved = tmp_path / "moved.json"
    dump_json(obj, moved)
    capsys.readouterr()
    assert cli("verify", str(moved)) == 1
    assert "[FAIL] alternation obstruction: detour via b1 is short enough" \
        in capsys.readouterr().out.splitlines()


def test_dilation_reports_witness(square, capsys):
    pts, tr = square
    assert cli("dilation", "--points", str(pts), "--tree", str(tr)) == 0
    out = capsys.readouterr().out
    assert "witness pair: 0,3" in out
    assert "dilation in [3, 3]" in out


def test_dilation_on_balanced_instance_tree(tmp_path, capsys):
    # valid split: the decision threshold certifies, bare 3/2 does not apply
    inst = gen_instance(tmp_path, "1,1")
    sol_path = tmp_path / "sol.json"
    assert cli("decide", str(inst), "-o", str(sol_path)) == 0
    data = load_json(inst)
    pts_path = tmp_path / "gpts.json"
    dump_json({"points": data["points"]}, pts_path)
    tree_path = tmp_path / "gtree.json"
    dump_json({"edges": load_json(sol_path)["edges"]}, tree_path)
    threshold = f"{data['P']}/{data['Q']}"
    assert cli("dilation", "--points", str(pts_path), "--tree",
               str(tree_path), "--threshold", threshold) == 0
    capsys.readouterr()
    assert cli("dilation", "--points", str(pts_path), "--tree",
               str(tree_path)) == 0
    out = capsys.readouterr().out
    assert "witness pair: q2,p2" in out


def test_mdst_writes_optimal_tree(square, tmp_path, capsys):
    pts, _ = square
    out = tmp_path / "best.json"
    assert cli("mdst", "--points", str(pts), "-o", str(out)) == 0
    edges = {tuple(e) for e in load_json(out)["edges"]}
    assert len(edges) == 3
    text = capsys.readouterr().out
    assert "examined" in text


def test_mdst_respects_required_edge(square, tmp_path):
    pts, _ = square
    out = tmp_path / "forced.json"
    assert cli("mdst", "--points", str(pts), "--require", "0,2",
               "-o", str(out)) == 0
    assert [0, 2] in load_json(out)["edges"]


def test_cached_parser_answers_like_a_fresh_one(square, tmp_path, capsys,
                                               monkeypatch):
    # `run` builds its parser once per process; every call must give the
    # exit code and output of a fresh parser, with no option carried over
    pts, _ = square
    inst = tmp_path / "inst.json"
    sequence = [["mdst", "--points", str(pts), "--require", "0,2"],
                ["mdst", "--points", str(pts)],
                ["gen", "--alphas", "1,1", "-o", str(inst)],
                ["verify", str(inst)],
                ["decide", str(inst)]]

    def outcomes():
        capsys.readouterr()
        return [(cli(*argv), capsys.readouterr()) for argv in sequence]

    shared = outcomes()
    assert build_parser() is build_parser()
    assert build_parser().parse_args(
        ["mdst", "--points", str(pts)]).require is None
    monkeypatch.setattr(cli_module, "build_parser", build_parser.__wrapped__)
    assert outcomes() == shared
    # the required diagonal changes the answer, so a carried-over
    # --require would show in the second run
    assert shared[0] != shared[1]
    assert [code for code, _ in shared] == [0, 0, 0, 0, 0]


def test_mdst_infeasible_requirements(square, capsys):
    # three required edges at vertex 0 admit no Hamiltonian path
    pts, _ = square
    assert cli("mdst", "--points", str(pts), "--mode", "path",
               "--require", "0,1", "--require", "0,2",
               "--require", "0,3") == 1
    assert "infeasible:" in capsys.readouterr().err


@pytest.fixture
def sqrt5_star(tmp_path):
    # the leaf pairs (1, 2) and (3, 4) tie at sqrt(5): only the exact
    # fallback, from 256 bits on, settles the witness
    pts = tmp_path / "star.json"
    tr = tmp_path / "star_tree.json"
    dump_json({"points": [[0, 0], [1, 2], [-1, 2], [1, -2], [-1, -2]]}, pts)
    dump_json({"edges": [[0, 1], [0, 2], [0, 3], [0, 4]]}, tr)
    return pts, tr


def test_precision_cap_from_environment(sqrt5_star, capsys, monkeypatch):
    pts, tr = sqrt5_star
    argv = ("dilation", "--points", str(pts), "--tree", str(tr))
    monkeypatch.setenv("DILATREE_MAX_BITS", "64")
    assert cli(*argv) == 3
    assert "undecided:" in capsys.readouterr().err
    monkeypatch.setenv("DILATREE_MAX_BITS", "abc")
    assert cli(*argv) == 2
    assert "DILATREE_MAX_BITS must be an integer" in capsys.readouterr().err


def test_malformed_pairs_exit_2(square, tmp_path, capsys):
    pts, tr = square
    bad = tmp_path / "bad.json"
    for obj, files, message in (
            ({"points": [[0, 0], [1, 0, 5], [1, 1], [0, 1]]}, (bad, tr),
             "a point must be an [x, y] pair, got [1, 0, 5]"),
            ({"edges": [[0, 1], [1, 2], [2]]}, (pts, bad),
             "an edge must be a [u, v] pair, got [2]")):
        dump_json(obj, bad)
        assert cli("dilation", "--points", str(files[0]),
                   "--tree", str(files[1])) == 2
        assert message in capsys.readouterr().err


def test_mdst_size_guard(tmp_path):
    path = tmp_path / "many.json"
    dump_json({"points": [[i, i * i] for i in range(11)]}, path)
    assert cli("mdst", "--points", str(path)) == 2


def test_mdst_cap_on_fifty_points(tmp_path, capsys):
    # the tree search must reach the cap, not Python's recursion limit
    rng = random.Random(50)
    coords = set()
    while len(coords) < 50:
        coords.add((rng.randint(0, 10 ** 4), rng.randint(0, 10 ** 4)))
    path = tmp_path / "fifty.json"
    dump_json({"points": sorted(coords)}, path)
    assert cli("mdst", "--points", str(path), "--max-points", "50",
               "--cap", "20") == 2
    assert "enumeration cap exceeded" in capsys.readouterr().err


def test_mdst_path_mode(square, tmp_path):
    pts, _ = square
    out = tmp_path / "path.json"
    assert cli("mdst", "--points", str(pts), "--mode", "path",
               "-o", str(out)) == 0
    degree = {}
    for u, v in load_json(out)["edges"]:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert sorted(degree.values()) == [1, 1, 2, 2]


def test_svg_deterministic_bytes(square, tmp_path):
    pts, tr = square
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert cli("svg", "--points", str(pts), "--tree", str(tr),
               "-o", str(a)) == 0
    assert cli("svg", "--points", str(pts), "--tree", str(tr),
               "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg ")


def test_witness5_writes_points(tmp_path, capsys):
    out = tmp_path / "w5.json"
    code = cli("witness5", "--seed", "10", "--budget", "5000",
               "-o", str(out))
    assert code == 0
    ps = points_from_json(load_json(out))
    assert ps.n == 5
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 5


def test_oracle_prints_split(capsys):
    assert cli("oracle", "--alphas", "2,3,5") == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"A": [1, 2], "A_prime": [3]}


# ---------------------------------------------------------------------------
# pinned reduction files: gen writes these bytes, verify and decide print
# these verdicts

_NO_SPLIT = ("no partition: every candidate tree certifies dilation above"
             " the threshold")

# (weights, k or None for the default, SHA-256 of the instance file and of
# the --gadget file, count of squared identities the audit checks,
# decide's line)
GEN_PINS = [
    ("1", None,
     "86c92e153819f6f2434fb14c065ac0dac12966f07a374951914025cad5c659dc",
     "f866836b01b2e0fd2476bdf702b5706b196e7e269afeba2af0028942dc82d8e7",
     12, _NO_SPLIT),
    ("1,1", None,
     "c9043596cd372712c048364bfa04e2fffb72feec5be33af1111cb0c8644b5ba0",
     "cc5a6dd4ca715b5be8903c37785f6567c7e3c7ea2bc5d9447e1b57a8fbd74e2a",
     17, "partition found: A=[2] A'=[1]"),
    ("2,3,5", None,
     "170327a564ea0d9aa28624cad25fa2d3dd2ac6b0b900cd6a64a05dadc82e49e9",
     "4e4293e182b7aa83ade1905253b31fcf885e5e601b8c43de56b11afe170664c8",
     21, "partition found: A=[3] A'=[1, 2]"),
    ("1,2,4", None,
     "c6da18f7312b03164cb2538da3e7ffb8691165bc2f9a90a5b61907d29f177f80",
     "570c6545e771b390a961db617863517fb07a143164cea5f0edb12764730aa48f",
     21, _NO_SPLIT),
    ("3,5,2,4,6", None,
     "cf0c7cb4da332a585fd0ced47f3a6b48fe7d3220d1fda65edafbe98963a026c6",
     "373f267ab5e395267b844d19b55857e24e5bdc1f3c8a8a4e90d44a72a51145bb",
     29, "partition found: A=[4, 5] A'=[1, 2, 3]"),
    ("1,1,1,1,1,1,5", None,
     "96abfa78009402b112ee5fb62aed4acdb98e2c158290913dda385d1f54f5910e",
     "870c11041fbb37e59cb1ad8b0baea97799efe190ae4a9da6906651c4daec5585",
     37, _NO_SPLIT),
    ("9,8,7,6,5,4,3,2,1", None,
     "739b66406f51fd3cd836393ede7e394ab6667e10bfc7713906b45213164d8031",
     "19e711ce90c3a8fa83843593821dd8410e2db2a2d93bfd62d837a7619beeeedd",
     45, _NO_SPLIT),
    ("2,3,5", 60,
     "818a9b081119848d39bf41782e4822e53d7caeb8d60e82af81fecce82f82542e",
     "53b48840ae16807c59462ae889dae10a40ef4558167c0f0a460c270f2b84843a",
     21, "partition found: A=[3] A'=[1, 2]"),
]


@pytest.mark.parametrize("alphas, k, inst_sha, gadget_sha, identities,"
                         " verdict", GEN_PINS,
                         ids=[f"{a}-k{k}" for a, k, *_ in GEN_PINS])
def test_gen_files_and_verdicts_are_pinned(tmp_path, capsys, alphas, k,
                                           inst_sha, gadget_sha,
                                           identities, verdict):
    inst, gadget = tmp_path / "inst.json", tmp_path / "gadget.json"
    argv = ["gen", "--alphas", alphas, "-o", str(inst),
            "--gadget", str(gadget)] + (["--k", str(k)] if k else [])
    assert cli(*argv) == 0
    k = int(capsys.readouterr().out.split(" k=")[1].split()[0])
    for path, sha in ((inst, inst_sha), (gadget, gadget_sha)):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
    n = alphas.count(",") + 1
    audit = [
        f"[ok] distance identities: {identities} squared identities"
        " hold exactly",
        "[ok] mirror symmetry: primed points reflect exactly",
        f"[ok] choice-point placement: residuals under 2^-{k + 4},"
        " sides correct",
        "[ok] angle bounds: anchor and slope cosines all clear",
        f"[ok] critical set: exactly the {6 * n + 6} forced edges",
        "[ok] alternation obstruction: every index keeps exactly two"
        " choices",
    ]
    rescale = ["[ok] integer rescaling: stored points match a fresh"
               " rescale"]
    for path, lines in ((inst, audit + rescale), (gadget, audit)):
        assert cli("verify", str(path)) == 0
        assert capsys.readouterr().out.splitlines() == lines
        assert cli("decide", str(path)) == (1 if verdict == _NO_SPLIT
                                            else 0)
        assert capsys.readouterr().out.splitlines() == [verdict]
