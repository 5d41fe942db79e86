"""Deterministic SVG rendering of scenes, decompositions and plans.

Hand-written SVG keeps the output byte-stable: fixed float formatting, no
timestamps, no generated ids beyond a static hatch pattern. Nodes covered by
several maps are hatched; each map gets its own hue.
"""

from __future__ import annotations

from .decomposition import Decomposition
from .kinematics import ArmModel, forward_kinematics
from .motion import _subdivided
from .sequencer import SequencePlan
from .world import Box, Disc, Scene

PALETTE = ["#2f9e44", "#1971c2", "#e8590c", "#9c36b5", "#c2a000", "#0ca678"]
OVERLAP_FILL = "#1d5b2c"
TRACE_STEP = 0.05  # widest d_C span between traced end-effector points


def _f(x: float) -> str:
    return ("%.5f" % x).rstrip("0").rstrip(".")


class _Canvas:
    def __init__(self, xmin, ymin, xmax, ymax, width=760.0, margin=0.15):
        xmin, xmax = xmin - margin, xmax + margin
        ymin, ymax = ymin - margin, ymax + margin
        self.scale = width / (xmax - xmin)
        self.xmin, self.ymax = xmin, ymax
        self.w = width
        self.h = (ymax - ymin) * self.scale
        self.body: list[str] = []

    def pt(self, x, y):
        return (x - self.xmin) * self.scale, (self.ymax - y) * self.scale

    def rect(self, xmin, ymin, xmax, ymax, fill, opacity=1.0):
        x0, y1 = self.pt(xmin, ymin)
        x1, y0 = self.pt(xmax, ymax)
        self.body.append('<rect x="%s" y="%s" width="%s" height="%s" fill="%s" opacity="%s"/>'
                         % (_f(x0), _f(y0), _f(x1 - x0), _f(y1 - y0), fill, _f(opacity)))

    def circle(self, cx, cy, r, fill, stroke="none", opacity=1.0):
        x, y = self.pt(cx, cy)
        self.body.append('<circle cx="%s" cy="%s" r="%s" fill="%s" stroke="%s" opacity="%s"/>'
                         % (_f(x), _f(y), _f(r * self.scale), fill, stroke, _f(opacity)))

    def dot(self, cx, cy, px, fill):
        x, y = self.pt(cx, cy)
        self.body.append('<circle cx="%s" cy="%s" r="%s" fill="%s"/>' % (_f(x), _f(y), _f(px), fill))

    def line(self, x0, y0, x1, y1, stroke, width=1.0, opacity=1.0):
        a, b = self.pt(x0, y0)
        c, d = self.pt(x1, y1)
        self.body.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                         'stroke-width="%s" opacity="%s"/>'
                         % (_f(a), _f(b), _f(c), _f(d), stroke, _f(width), _f(opacity)))

    def polyline(self, pts, stroke, width=1.5, opacity=1.0):
        coords = " ".join("%s,%s" % tuple(map(_f, self.pt(x, y))) for x, y in pts)
        self.body.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="%s" opacity="%s"/>'
                         % (coords, stroke, _f(width), _f(opacity)))

    def arrow(self, x, y, dx, dy, stroke, size=7.0):
        px, py = self.pt(x, y)
        n = (dx * dx + dy * dy) ** 0.5
        if n == 0:
            return
        ux, uy = dx / n, -dy / n  # svg y axis points down
        lx, ly = -uy, ux
        p1 = (px - size * ux + 0.5 * size * lx, py - size * uy + 0.5 * size * ly)
        p2 = (px - size * ux - 0.5 * size * lx, py - size * uy - 0.5 * size * ly)
        self.body.append('<polygon points="%s,%s %s,%s %s,%s" fill="%s"/>'
                         % (_f(px), _f(py), _f(p1[0]), _f(p1[1]), _f(p2[0]), _f(p2[1]), stroke))

    def svg(self) -> str:
        head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
                'viewBox="0 0 %s %s">' % (_f(self.w), _f(self.h), _f(self.w), _f(self.h)))
        defs = ('<defs><pattern id="hatch" width="6" height="6" '
                'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
                '<rect width="6" height="6" fill="%s"/>'
                '<line x1="0" y1="0" x2="0" y2="6" stroke="#ffffff" stroke-width="2"/>'
                '</pattern></defs>' % OVERLAP_FILL)
        bg = '<rect width="100%" height="100%" fill="#ffffff"/>'
        return "\n".join([head, defs, bg] + self.body + ["</svg>"]) + "\n"


def _scene_bounds(scene: Scene, extra_pts):
    xs, ys = [], []
    for o in scene.obstacles:
        if isinstance(o, Box):
            xs += [o.xmin, o.xmax]
            ys += [o.ymin, o.ymax]
        elif isinstance(o, Disc):
            xs += [o.center[0] - o.radius, o.center[0] + o.radius]
            ys += [o.center[1] - o.radius, o.center[1] + o.radius]
    for x, y in extra_pts:
        xs.append(x)
        ys.append(y)
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    return min(xs), min(ys), max(xs), max(ys)


def _draw_scene(cv: _Canvas, scene: Scene):
    for o in scene.obstacles:
        color = "#555555" if o.tag == "offline" else "#c0392b"
        if isinstance(o, Box):
            cv.rect(o.xmin, o.ymin, o.xmax, o.ymax, color, opacity=0.85)
        else:
            cv.circle(o.center[0], o.center[1], o.radius, color, opacity=0.85)


def _draw_arm(cv: _Canvas, arm: ArmModel, q, color, width=3.0):
    _, pts = forward_kinematics(arm, q)
    cv.polyline([(p[0], p[1]) for p in pts], color, width=width, opacity=0.9)
    for p in pts:
        cv.dot(p[0], p[1], 3.0, color)


def render_decomposition_svg(dec: Decomposition, scene: Scene, arm: ArmModel) -> str:
    """Scene, graph edges, per-map node colours (overlap hatched) and root poses."""
    node_pts = [p.position for g in dec.graphs for p in g.nodes]
    base_pts = [arm.base_position] + ([tuple(b) for b in dec.base_poses or []])
    cv = _Canvas(*_scene_bounds(scene, node_pts + base_pts))
    _draw_scene(cv, scene)
    for g in dec.graphs:
        for (i, j) in sorted(g.edges):
            pi, pj = g.nodes[i].position, g.nodes[j].position
            cv.line(pi[0], pi[1], pj[0], pj[1], "#cccccc", width=0.8)
    membership: dict[tuple[float, float], list[int]] = {}
    for mi, m in enumerate(dec.maps):
        g = dec.graph_for(m)
        for n in m.assignment:
            membership.setdefault(g.nodes[n].position, []).append(mi)
    for pos in sorted(membership):
        owners = membership[pos]
        fill = "url(#hatch)" if len(owners) > 1 else PALETTE[owners[0] % len(PALETTE)]
        cv.dot(pos[0], pos[1], 4.5, fill)
    for g in dec.graphs:
        for i, p in enumerate(g.nodes):
            if p.position not in membership:
                cv.dot(p.position[0], p.position[1], 2.0, "#bbbbbb")
    for mi, m in enumerate(dec.maps):
        _draw_arm(cv, arm.at_base(m.base_pose), m.root_config, PALETTE[mi % len(PALETTE)])
    return cv.svg()


def render_plan_svg(plan: SequencePlan, scene: Scene, arm: ArmModel) -> str:
    """End-effector traces per leg with direction arrows, plus visited targets."""
    traces = []
    for leg in plan.legs:
        qs = _subdivided(leg.trajectory.waypoints, TRACE_STEP)
        traces.append([tuple(map(float, forward_kinematics(arm, q)[0])) for q in qs])
    all_pts = [p for tr in traces for p in tr] + [arm.base_position]
    cv = _Canvas(*_scene_bounds(scene, all_pts))
    _draw_scene(cv, scene)
    for li, (leg, pts) in enumerate(zip(plan.legs, traces)):
        color = PALETTE[(leg.map_index or 0) % len(PALETTE)] if leg.valid is not False else "#c0392b"
        cv.polyline(pts, color, width=1.6, opacity=0.9)
        mid = len(pts) // 2
        if len(pts) >= 2 and mid >= 1:
            (x0, y0), (x1, y1) = pts[mid - 1], pts[mid]
            cv.arrow(x1, y1, x1 - x0, y1 - y0, color)
    for li, leg in enumerate(plan.legs):
        tip, _ = forward_kinematics(arm, leg.trajectory.waypoints[-1])
        label_home = leg.to_label == -1
        cv.dot(tip[0], tip[1], 5.0 if label_home else 4.0,
               "#222222" if label_home else "#d9480f")
    if plan.home_config is not None:
        _draw_arm(cv, arm, plan.home_config, "#444444", width=2.0)
    return cv.svg()
