"""Self-contained SVG 1.1 scatter plots of instance maps.

Continuous feature coloring uses a small viridis-style ramp, categorical
coloring (generator sources) a colorblind-safe discrete palette. Explicit
maps draw the admissible region's four boundary curves; points flagged as
envy-free render as crosses and characteristic landmark instances as stars.
No plotting library, just elements.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from . import dataio
from .core import NON_XML_CHAR, ValidationError, check_labels
from .features import FeatureTable, UnknownFeature

_VIRIDIS = [
    (0.000, (68, 1, 84)),
    (0.125, (72, 40, 120)),
    (0.250, (62, 74, 137)),
    (0.375, (49, 104, 142)),
    (0.500, (38, 130, 142)),
    (0.625, (31, 158, 137)),
    (0.750, (53, 183, 121)),
    (0.875, (109, 205, 89)),
    (1.000, (253, 231, 37)),
]
_DISCRETE = [
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#999933",
    "#882255",
    "#44aa99",
    "#332288",
]
_ABSENT = "#bbbbbb"

_W, _H = 720, 560
_LEFT, _TOP, _RIGHT, _BOTTOM = 70, 50, 170, 60
_PLOT_W = _W - _LEFT - _RIGHT
_PLOT_H = _H - _TOP - _BOTTOM
_FONT = "Helvetica, Arial, sans-serif"


def _ramp_color(t: float) -> str:
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_VIRIDIS, _VIRIDIS[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = [round(a + f * (b - a)) for a, b in zip(c0, c1)]
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_VIRIDIS[-1][1])


def _text(parent, x, y, s, size=11, anchor="start", **extra):
    el = ET.SubElement(
        parent,
        "text",
        {
            "x": f"{x:.1f}",
            "y": f"{y:.1f}",
            "font-family": _FONT,
            "font-size": str(size),
            "text-anchor": anchor,
            "fill": "#222222",
            **extra,
        },
    )
    el.text = s
    return el


def _star_d(px: float, py: float, r_out: float = 6.5, r_in: float = 2.6) -> str:
    corners = []
    for k in range(10):
        r = r_out if k % 2 == 0 else r_in
        a = -np.pi / 2 + k * np.pi / 5
        corners.append(f"{px + r * np.cos(a):.2f} {py + r * np.sin(a):.2f}")
    return "M " + " L ".join(corners) + " Z"


def _boundary_path(n: int, m: int) -> list[tuple[float, float]]:
    """Closed outline of the admissible region in (sigma2, sigma1) coords:
    south edge, east diagonal, north arc, west edge."""
    s_floor = np.sqrt(n / m)
    pts = [(0.0, s_floor), (s_floor, s_floor)]
    pts.append((np.sqrt(n / 2), np.sqrt(n / 2)))
    for t in np.linspace(np.pi / 4, 0.0, 48):
        pts.append((np.sqrt(n) * np.sin(t), np.sqrt(n) * np.cos(t)))
    pts.append((0.0, s_floor))
    return pts


def _check_labels_present(labels, table, what: str) -> None:
    missing = [lab for lab in labels if lab not in table]
    if missing:
        raise ValidationError(f"labels missing from {what}: {missing[:3]}")


def render_svg(
    path,
    labels,
    points,
    *,
    explicit: bool = False,
    records=None,
    by_source: bool = False,
    features: FeatureTable | None = None,
    color: str | None = None,
    title: str | None = None,
) -> None:
    """Draw one map of labeled k x 2 points as an SVG file.

    An explicit map plots (sigma1, sigma2) points as sigma2 across and sigma1
    up, inside the boundary of the first record's shape. ``records`` (any
    order, every label present) give the stars for characteristic instances
    and, with ``by_source``, a category per generator. ``features`` is a
    table with every label present: ``color`` picks the column of the color
    ramp and an ``ef_exists`` column marks crosses. A ``color`` without
    ``features``, ``by_source`` without ``records``, labels outside
    ``check_labels`` or a ``title`` with a ``NON_XML_CHAR`` is an error.
    """
    check_labels(labels)
    if title and NON_XML_CHAR.search(title):
        raise ValidationError(f"title {title!r} cannot contain characters XML 1.0 forbids")
    if color is not None and features is None:
        raise ValidationError(f"coloring by {color!r} needs a features table")
    if by_source and records is None:
        raise ValidationError("coloring by source needs the dataset")
    points = np.asarray(points, dtype=np.float64)
    if explicit:
        xs, ys, x_label, y_label = points[:, 1], points[:, 0], "sigma2", "sigma1"
    else:
        xs, ys, x_label, y_label = points[:, 0], points[:, 1], "x", "y"
    k = xs.size
    categories = star_flags = cross_flags = color_values = None
    bpts = []
    if records is not None:
        by_label = {rec.label: rec for rec in records}
        _check_labels_present(labels, by_label, "dataset")
        if by_source:
            categories = [by_label[lab].source.model for lab in labels]
        star_flags = [by_label[lab].source.model == "characteristic" for lab in labels]
        if explicit:
            first = by_label[labels[0]].matrix
            bpts = _boundary_path(first.n, first.m)
    if features is not None:
        by_label_row = dict(zip(features.labels, features.rows))
        _check_labels_present(labels, by_label_row, "features table")
        cells = [by_label_row[lab] for lab in labels]
        if color is not None:
            if color not in features.columns:
                raise UnknownFeature(color)
            color_values = [
                None if row[color] is None or np.isnan(row[color]) else float(row[color])
                for row in cells
            ]
        if "ef_exists" in features.columns:
            cross_flags = [bool(row["ef_exists"]) for row in cells]

    all_x = np.concatenate([xs, [p[0] for p in bpts]]) if bpts else xs
    all_y = np.concatenate([ys, [p[1] for p in bpts]]) if bpts else ys
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    xpad = 0.05 * (xmax - xmin) or 0.5
    ypad = 0.05 * (ymax - ymin) or 0.5
    xmin, xmax = xmin - xpad, xmax + xpad
    ymin, ymax = ymin - ypad, ymax + ypad

    def sx(x):
        return _LEFT + (x - xmin) / (xmax - xmin) * _PLOT_W

    def sy(y):
        return _TOP + _PLOT_H - (y - ymin) / (ymax - ymin) * _PLOT_H

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": str(_W),
            "height": str(_H),
            "viewBox": f"0 0 {_W} {_H}",
        },
    )
    ET.SubElement(root, "rect", {"x": "0", "y": "0", "width": str(_W), "height": str(_H), "fill": "#ffffff"})

    # color assignment
    if categories is not None:
        order = sorted(set(categories))
        cat_color = {c: _DISCRETE[i % len(_DISCRETE)] for i, c in enumerate(order)}
        fills = [cat_color[c] for c in categories]
    elif color_values is not None:
        present = [v for v in color_values if v is not None]
        lo = min(present) if present else 0.0
        hi = max(present) if present else 1.0
        span = hi - lo
        fills = [
            _ABSENT if v is None else _ramp_color(0.5 if span == 0 else (v - lo) / span)
            for v in color_values
        ]
    else:
        fills = ["#4477aa"] * k

    # axes
    axis = {"stroke": "#222222", "stroke-width": "1", "fill": "none"}
    ET.SubElement(root, "line", {"x1": f"{_LEFT}", "y1": f"{_TOP + _PLOT_H}", "x2": f"{_LEFT + _PLOT_W}", "y2": f"{_TOP + _PLOT_H}", **axis})
    ET.SubElement(root, "line", {"x1": f"{_LEFT}", "y1": f"{_TOP}", "x2": f"{_LEFT}", "y2": f"{_TOP + _PLOT_H}", **axis})
    for tick in np.linspace(xmin, xmax, 5):
        tx = sx(tick)
        ET.SubElement(root, "line", {"x1": f"{tx:.1f}", "y1": f"{_TOP + _PLOT_H}", "x2": f"{tx:.1f}", "y2": f"{_TOP + _PLOT_H + 5}", **axis})
        _text(root, tx, _TOP + _PLOT_H + 18, f"{tick:.3g}", anchor="middle")
    for tick in np.linspace(ymin, ymax, 5):
        ty = sy(tick)
        ET.SubElement(root, "line", {"x1": f"{_LEFT - 5}", "y1": f"{ty:.1f}", "x2": f"{_LEFT}", "y2": f"{ty:.1f}", **axis})
        _text(root, _LEFT - 8, ty + 4, f"{tick:.3g}", anchor="end")
    _text(root, _LEFT + _PLOT_W / 2, _H - 18, x_label, size=13, anchor="middle")
    ylab = _text(root, 20, _TOP + _PLOT_H / 2, y_label, size=13, anchor="middle")
    ylab.set("transform", f"rotate(-90 20 {_TOP + _PLOT_H / 2:.1f})")
    if title:
        _text(root, _LEFT + _PLOT_W / 2, 28, title, size=15, anchor="middle")

    # boundary outline
    if bpts:
        d = "M " + " L ".join(f"{sx(x):.2f} {sy(y):.2f}" for x, y in bpts) + " Z"
        ET.SubElement(
            root,
            "path",
            {"d": d, "fill": "none", "stroke": "#888888", "stroke-width": "1.2", "stroke-dasharray": "5,4"},
        )

    # data markers, one element per point (stars outrank crosses)
    for idx in range(k):
        px, py = sx(xs[idx]), sy(ys[idx])
        fill = fills[idx]
        is_star = star_flags is not None and bool(star_flags[idx])
        is_cross = cross_flags is not None and bool(cross_flags[idx])
        if is_star:
            el = ET.SubElement(
                root,
                "path",
                {"class": "pt", "d": _star_d(px, py), "fill": fill, "stroke": "#111111", "stroke-width": "0.8"},
            )
        elif is_cross:
            d = (
                f"M {px - 4:.2f} {py - 4:.2f} L {px + 4:.2f} {py + 4:.2f} "
                f"M {px - 4:.2f} {py + 4:.2f} L {px + 4:.2f} {py - 4:.2f}"
            )
            el = ET.SubElement(
                root,
                "path",
                {"class": "pt", "d": d, "stroke": fill, "stroke-width": "2.2", "fill": "none"},
            )
        else:
            el = ET.SubElement(
                root,
                "circle",
                {
                    "class": "pt",
                    "cx": f"{px:.2f}",
                    "cy": f"{py:.2f}",
                    "r": "4",
                    "fill": fill,
                    "stroke": "#333333",
                    "stroke-width": "0.6",
                },
            )
        tip = ET.SubElement(el, "title")
        tip.text = str(labels[idx])

    # legend
    lx = _W - _RIGHT + 20
    ly = _TOP + 10
    if categories is not None:
        _text(root, lx, ly - 2, "source", size=12)
        for i, cat in enumerate(sorted(set(categories))):
            yy = ly + 14 + i * 16
            ET.SubElement(root, "rect", {"x": f"{lx}", "y": f"{yy - 9}", "width": "11", "height": "11", "fill": _DISCRETE[i % len(_DISCRETE)]})
            _text(root, lx + 16, yy, cat)
    elif color_values is not None:
        defs = ET.SubElement(root, "defs")
        grad = ET.SubElement(defs, "linearGradient", {"id": "ramp", "x1": "0", "y1": "1", "x2": "0", "y2": "0"})
        for t, _ in _VIRIDIS:
            ET.SubElement(grad, "stop", {"offset": f"{t:g}", "stop-color": _ramp_color(t)})
        ET.SubElement(root, "rect", {"x": f"{lx}", "y": f"{ly}", "width": "14", "height": "120", "fill": "url(#ramp)", "stroke": "#333333", "stroke-width": "0.5"})
        _text(root, lx + 20, ly + 8, f"{hi:.3g}")
        _text(root, lx + 20, ly + 122, f"{lo:.3g}")
        if color:
            _text(root, lx, ly + 140, color, size=12)
    if cross_flags is not None:
        yy = _TOP + 190
        d = f"M {lx} {yy - 4} L {lx + 8} {yy + 4} M {lx} {yy + 4} L {lx + 8} {yy - 4}"
        ET.SubElement(root, "path", {"d": d, "stroke": "#222222", "stroke-width": "2", "fill": "none"})
        _text(root, lx + 14, yy + 4, "envy-free allocation exists")
    if star_flags is not None:
        yy = _TOP + 212
        ET.SubElement(root, "path", {"d": _star_d(lx + 4, yy, 6.0, 2.4), "fill": "#cccccc", "stroke": "#111111", "stroke-width": "0.8"})
        _text(root, lx + 14, yy + 4, "characteristic instance")

    ET.indent(root)
    dataio._write_text(path, [ET.tostring(root, encoding="unicode", xml_declaration=True)])
