"""Stable on-disk formats: JSON for points, trees, and instances, SVG out.

Every number crosses the file boundary as a decimal string so arbitrary
precision survives JSON round-trips.  Three spellings are accepted:
plain integers ("42"), rationals ("p/q"), and dyadics ("m/2^e"); writers
pick the spelling that matches the value's role, readers take any.
The SVG rendering is presentational only and is never read back.
"""

import json
import re
from fractions import Fraction

from .dilation import PointSet, Tree
from .exactgeom import Point
from .gadget import Gadget, IntegerInstance, _labels

_DYADIC = re.compile(r"(-?\d+)/2\^(\d+)")
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")
_INTEGER = re.compile(r"-?\d+")


def format_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_dyadic(x, frac_bits: int) -> str:
    x = Fraction(x)
    scaled = x * (1 << frac_bits)
    if scaled.denominator != 1:
        raise ValueError(f"{x} is not dyadic at {frac_bits} bits")
    return f"{scaled.numerator}/2^{frac_bits}"


def parse_number(s) -> Fraction:
    if type(s) is int:                  # a JSON true is not a number
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a number string, got {s!r}")
    m = _DYADIC.fullmatch(s)
    if m:
        return Fraction(int(m.group(1)), 1 << int(m.group(2)))
    m = _RATIONAL.fullmatch(s)
    if m:
        den = int(m.group(2) or 1)
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(m.group(1)), den)
    raise ValueError(f"unreadable number {s!r}")


def _parse_int(s, what) -> int:
    # a plain decimal string is read by int(); any other spelling goes
    # through parse_number, so the same strings are accepted
    if isinstance(s, str) and _INTEGER.fullmatch(s):
        return int(s)
    v = parse_number(s)
    if v.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {s!r}")
    return v.numerator


def _shape(v, kind, what):
    if not isinstance(v, kind):
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {v!r}")
    return v


def _pair(v, what, form):
    if len(_shape(v, list, what)) != 2:
        raise ValueError(f"{what} must be {form} pair, got {v!r}")
    return v


def _point(xy) -> Point:
    x, y = _pair(xy, "a point", "an [x, y]")
    return Point(parse_number(x), parse_number(y))


def _weights(obj, what, keys) -> tuple[int, ...]:
    """The weights of an instance or gadget file that has all of `keys`."""
    for key in keys:
        if key not in _shape(obj, dict, what):
            raise ValueError(f"{what} is missing \"{key}\"")
    return tuple(_parse_int(a, "weight") for a in
                 _shape(obj["alphas_dot"], list, "\"alphas_dot\""))


def _labelled_point(entry, i, parse, keys):
    """The x and y of point i, a JSON object, each read by `parse`, and
    its label, None when absent; a missing key of `keys` is named."""
    for key in keys:
        if key not in entry:
            raise ValueError(f"point {i} is missing \"{key}\"")
    return parse(entry["x"]), parse(entry["y"]), entry.get("label")


def _canonical_points(obj, n, parse):
    """The 8n+8 (x, y) pairs of an instance or gadget file, each
    coordinate read by `parse`, and their labels, in canonical order."""
    entries = _shape(obj["points"], list, "\"points\"")
    if len(entries) != 8 * n + 8:
        raise ValueError(f"wrong number of points for n={n}")
    xy, labels = [], []
    for i, entry in enumerate(entries):
        x, y, label = _labelled_point(_shape(entry, dict, "a labelled point"),
                                      i, parse, ("x", "y", "label"))
        xy.append((x, y))
        labels.append(label)
    if tuple(labels) != tuple(_labels(n)):
        raise ValueError("labels deviate from the canonical ordering")
    return xy, labels


# ---------------------------------------------------------------------------
# points and trees


def points_to_json(ps: PointSet) -> dict:
    out = []
    for i, p in enumerate(ps.points):
        entry = {"label": ps.labels[i]} if ps.labels else {}
        entry["x"] = format_rational(p.x)
        entry["y"] = format_rational(p.y)
        out.append(entry)
    return {"points": out}


def points_from_json(obj) -> PointSet:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValueError("points file needs a top-level \"points\" list")
    pts, labels = [], []
    for i, entry in enumerate(_shape(obj["points"], list, "\"points\"")):
        if isinstance(entry, dict):
            x, y, label = _labelled_point(entry, i, parse_number, ("x", "y"))
            pts.append(Point(x, y))
            labels.append(label)
        else:
            pts.append(_point(entry))
            labels.append(None)
    if any(lab is None for lab in labels):
        return PointSet(pts)
    return PointSet(pts, labels=labels)


def tree_to_json(tree: Tree) -> dict:
    return {"edges": [[u, v] for u, v in tree.edges]}


def tree_from_json(obj, n: int) -> Tree:
    if not isinstance(obj, dict) or "edges" not in obj:
        raise ValueError("tree file needs a top-level \"edges\" list")
    edges = [_pair(e, "an edge", "a [u, v]")
             for e in _shape(obj["edges"], list, "\"edges\"")]
    # a vertex index is a JSON integer: not a string, float or bool
    if any(type(v) is not int for e in edges for v in e):
        raise ValueError("edge ends must be integer vertex indices")
    return Tree(n, edges)


# ---------------------------------------------------------------------------
# integerized instances


def instance_to_json(ii: IntegerInstance) -> dict:
    pts = [{"label": label, "x": str(x), "y": str(y)} for label, (x, y)
           in zip(ii.points.labels, ii.points.numerators)]
    return {
        "alphas_dot": list(ii.alphas_dot),
        "k": ii.k,
        "P": str(ii.P),
        "Q": str(ii.Q),
        "points": pts,
        "scale": f"1800*2^{ii.k}",
    }


def instance_from_json(obj) -> IntegerInstance:
    """Parse and cross-check an instance file.

    The threshold, the scale and the label layout must all agree with
    what the declared weights and k fix; geometry itself is revalidated
    later by whoever consumes the points.
    """
    alphas_dot = _weights(obj, "instance file",
                          ("alphas_dot", "k", "P", "Q", "points", "scale"))
    k = _parse_int(obj["k"], "k")
    if obj["scale"] != f"1800*2^{k}":
        raise ValueError("scale does not match k")
    xy, labels = _canonical_points(obj, len(alphas_dot),
                                   lambda s: _parse_int(s, "coordinate"))
    ii = IntegerInstance(alphas_dot=alphas_dot, k=k,
                         points=PointSet.from_ints(xy, 1, labels))
    if (_parse_int(obj["P"], "P"), _parse_int(obj["Q"], "Q")) != (ii.P, ii.Q):
        raise ValueError("threshold does not match the weights")
    return ii


# ---------------------------------------------------------------------------
# exact gadgets


def gadget_to_json(g: Gadget) -> dict:
    d_lo, d_hi = g.d(1), g.d(g.n)
    mirror_d = {g.mirror(j) for j in range(d_lo, d_hi + 1)}
    pts = []
    for j, p in enumerate(g.points.points):
        if d_lo <= j <= d_hi or j in mirror_d:
            # stored dyadics carry a couple of grid bits beyond d_bits
            e = max(p.x.denominator.bit_length(),
                    p.y.denominator.bit_length()) - 1
            x, y = format_dyadic(p.x, e), format_dyadic(p.y, e)
        else:
            x, y = format_rational(p.x), format_rational(p.y)
        pts.append({"label": g.points.labels[j], "x": x, "y": y})
    return {"alphas_dot": list(g.alphas_dot), "d_bits": g.d_bits,
            "points": pts}


def gadget_from_json(obj) -> Gadget:
    """Parse a gadget file; the weights fix all but `d_bits` and the points."""
    alphas_dot = _weights(obj, "gadget file",
                          ("alphas_dot", "d_bits", "points"))
    d_bits = _parse_int(obj["d_bits"], "d_bits")
    xy, labels = _canonical_points(obj, len(alphas_dot), parse_number)
    return Gadget(alphas_dot=alphas_dot, d_bits=d_bits,
                  points=PointSet([Point(x, y) for x, y in xy], labels))


# ---------------------------------------------------------------------------
# path helpers


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# SVG rendering
#
# Coordinates are projected once through a 6-significant-digit decimal
# format; layout, ordering, and styling are all fixed, so identical
# inputs produce byte-identical files.

_VIEW = 1000.0
_MARGIN = 60.0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(ps: PointSet, tree: Tree | None = None) -> str:
    xs = [float(p.x) for p in ps.points]
    ys = [-float(p.y) for p in ps.points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (_VIEW - 2 * _MARGIN) / span

    def proj(i):
        return (_MARGIN + (xs[i] - lo_x) * scale,
                _MARGIN + (ys[i] - lo_y) * scale)

    height = 2 * _MARGIN + (hi_y - lo_y) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(_VIEW)} {_fmt(height)}" '
        f'width="{_fmt(_VIEW)}" height="{_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if tree is not None:
        for u, v in tree.edges:
            (x1, y1), (x2, y2) = proj(u), proj(v)
            lines.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                         f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                         'stroke="black" stroke-width="2"/>')
    for i in range(ps.n):
        x, y = proj(i)
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" '
                     'fill="crimson" stroke="black" stroke-width="1"/>')
    if ps.labels:
        # imported here, as it loads urllib.request, http.client and ssl
        from xml.sax.saxutils import escape
        for i in range(ps.n):
            x, y = proj(i)
            lines.append(f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" '
                         f'font-family="monospace" font-size="16">'
                         f'{escape(str(ps.labels[i]))}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
