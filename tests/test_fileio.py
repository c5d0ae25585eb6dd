import json
from fractions import Fraction
from xml.etree import ElementTree

import pytest

from dilatree.dilation import PointSet, Tree
from dilatree.exactgeom import Point, pt
from dilatree.fileio import (
    _parse_int, format_dyadic, format_rational, gadget_from_json, gadget_to_json,
    instance_from_json, instance_to_json, parse_number, points_from_json,
    points_to_json, render_svg, tree_from_json, tree_to_json,
)
from dilatree.gadget import PartitionInstance, build_gadget, integerize

SQUARE = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)],
                  labels=["sw", "se", "ne", "nw"])


def test_number_formats_round_trip():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(42)) == "42"
    assert parse_number("-3/7") == Fraction(-3, 7)
    assert parse_number("42") == Fraction(42)
    assert parse_number(42) == Fraction(42)
    assert format_dyadic(Fraction(5, 8), 3) == "5/2^3"
    assert parse_number("5/2^3") == Fraction(5, 8)
    assert parse_number("-9/2^0") == Fraction(-9)
    with pytest.raises(ValueError):
        format_dyadic(Fraction(1, 3), 10)
    for bad in ("1.5", "", "3/", "/4", "x", "2^5", None, "5\n", "1/2^3\n",
                "-3/7\n"):
        with pytest.raises(ValueError):
            parse_number(bad)
    for bad in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_number(bad)


def test_parse_int_accepts_the_same_strings_as_before():
    def reference(s, what):             # every string through parse_number
        v = parse_number(s)
        if v.denominator != 1:
            raise ValueError(f"{what} must be an integer, got {s!r}")
        return v.numerator

    for s in ("42", "-7", "007", "-0", "84/2", "8/2^2", "-9/2^0",
              "\u0664\u0662", 42, "5/3", "1/2^1", " 5", "+5", "1_000", "5\n",
              "", "-", "--5", "1.0", "\u00b2", None, True, 4.0):
        try:
            want = reference(s, "k")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _parse_int(s, "k")
            assert str(got.value) == str(exc)
        else:
            got = _parse_int(s, "k")
            assert type(got) is int and got == want


def test_points_round_trip():
    obj = points_to_json(SQUARE)
    back = points_from_json(obj)
    assert back.points == SQUARE.points
    assert back.labels == SQUARE.labels
    # bare coordinate pairs and missing labels are accepted on the way in
    mixed = points_from_json({"points": [[0, "1/2"], {"x": 3, "y": "-2"}]})
    assert mixed.points == (Point(Fraction(0), Fraction(1, 2)),
                            Point(Fraction(3), Fraction(-2)))
    assert mixed.labels is None
    with pytest.raises(ValueError):
        points_from_json({"rows": []})


def test_points_missing_a_coordinate_are_named():
    for key in ("x", "y"):
        entry = {"x": "1", "y": "2"}
        del entry[key]
        with pytest.raises(ValueError,
                           match=f'^point 1 is missing "{key}"$'):
            points_from_json({"points": [[0, 0], entry, [1, 1]]})
    # a label stays optional in a points file
    assert points_from_json({"points": [{"x": 0, "y": 0}, [1, 1]]}).labels \
        is None


@pytest.mark.parametrize("key", ["x", "y", "label"])
def test_instance_and_gadget_points_missing_a_key_are_named(key):
    g = build_gadget(PartitionInstance((1, 1)))
    for obj, read in ((instance_to_json(integerize(g)), instance_from_json),
                      (gadget_to_json(g), gadget_from_json)):
        del obj["points"][5][key]
        with pytest.raises(ValueError,
                           match=f'^point 5 is missing "{key}"$'):
            read(obj)


def test_tree_round_trip():
    t = Tree(4, [(0, 1), (1, 2), (2, 3)])
    back = tree_from_json(tree_to_json(t), 4)
    assert back.edges == t.edges
    with pytest.raises(ValueError):
        tree_from_json({"edges": [[0, 1]]}, 4)
    with pytest.raises(ValueError):
        tree_from_json({}, 4)


@pytest.mark.parametrize("entry", [[1], [1, 2, 3]])
def test_malformed_pairs_are_named(entry):
    # a point or an edge of the wrong length is named, not unpacked
    with pytest.raises(ValueError, match=r"a point must be an \[x, y\] pair"):
        points_from_json({"points": [[0, 0], entry]})
    with pytest.raises(ValueError, match=r"an edge must be a \[u, v\] pair"):
        tree_from_json({"edges": [[0, 1], entry]}, 3)


def test_instance_round_trip_is_exact():
    inst = PartitionInstance((1, 2, 1))
    ii = integerize(build_gadget(inst))
    obj = instance_to_json(ii)
    text = json.dumps(obj, indent=2)
    back = instance_from_json(json.loads(text))
    assert back.alphas_dot == inst.alphas_dot
    assert back.k == ii.k and back.P == ii.P and back.Q == ii.Q
    assert back.points.points == ii.points.points
    assert back.points.labels == ii.points.labels
    assert json.dumps(instance_to_json(back), indent=2) == text


def test_instance_file_cross_checks():
    inst = PartitionInstance((1, 1))
    ii = integerize(build_gadget(inst))
    good = instance_to_json(ii)

    bad = dict(good, scale="1800*2^7")
    with pytest.raises(ValueError):
        instance_from_json(bad)
    bad = dict(good, P=str(ii.P + 2))
    with pytest.raises(ValueError, match="threshold does not match"):
        instance_from_json(bad)
    bad = dict(good, Q=str(ii.Q * 2))
    with pytest.raises(ValueError, match="threshold does not match"):
        instance_from_json(bad)
    bad = dict(good, k=5, scale="1800*2^5")
    with pytest.raises(ValueError):
        instance_from_json(bad)
    pts = [dict(p) for p in good["points"]]
    pts[0], pts[1] = dict(pts[1]), dict(pts[0])
    with pytest.raises(ValueError):
        instance_from_json(dict(good, points=pts))
    dropped = dict(good)
    del dropped["Q"]
    with pytest.raises(ValueError):
        instance_from_json(dropped)


def test_gadget_round_trip_is_exact():
    g = build_gadget(PartitionInstance((2, 3)))
    obj = gadget_to_json(g)
    text = json.dumps(obj, indent=2)
    back = gadget_from_json(json.loads(text))
    assert set(obj) == {"alphas_dot", "d_bits", "points"}
    assert back.alphas_dot == g.alphas_dot and back.d_bits == g.d_bits
    assert back.points.points == g.points.points
    assert back.points.labels == g.points.labels
    assert back.rational_lengths == g.rational_lengths
    assert json.dumps(gadget_to_json(back), indent=2) == text


def test_gadget_file_rejects_label_drift():
    g = build_gadget(PartitionInstance((1,)))
    obj = gadget_to_json(g)
    obj["points"][3]["label"] = "zz"
    with pytest.raises(ValueError):
        gadget_from_json(obj)
    with pytest.raises(ValueError):
        gadget_from_json({k: v for k, v in obj.items() if k != "alphas_dot"})


def test_svg_is_deterministic_and_complete():
    t = Tree(4, [(0, 1), (1, 2), (2, 3)])
    one = render_svg(SQUARE, t)
    two = render_svg(SQUARE, t)
    assert one == two
    assert one.startswith("<svg ")
    assert one.count("<circle") == 4
    assert one.count("<line") == 3
    assert one.count("<text") == 4
    assert ">ne</text>" in one
    bare = render_svg(PointSet([pt(0, 0), pt(0, 5)]))
    assert bare.count("<circle") == 2
    assert "<line" not in bare and "<text" not in bare


def test_svg_escapes_labels():
    labels = ["a<b", "c&d", "e>f", 'g"h']
    ps = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)], labels=labels)
    root = ElementTree.fromstring(render_svg(ps))
    texts = root.findall("{http://www.w3.org/2000/svg}text")
    assert [t.text for t in texts] == labels
