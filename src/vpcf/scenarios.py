"""Initial-curve presets and the scenario configuration record.

The capsule and dumbbell are assembled from circular arcs and straight
segments joined C^1, then sampled at exactly uniform arclength (every piece
has closed-form arclength, so no spline resampling is involved and the
symmetry vertices land exactly: capsule poles at s = 0 and s = L/2).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameters
from .flow import FlowConfig
from .geometry import ClosedCurve, read_snapshot


@dataclass
class ScenarioConfig:
    """One scenario plus everything needed to run and record it."""

    scenario: str = "circle"     # circle | ellipse | capsule | dumbbell | file
    radius: float = 1.0          # circle
    a: float = 2.0               # ellipse semi-axes
    b: float = 1.0
    eps: float = 0.1             # capsule excess length
    neck_width: float = 0.1      # dumbbell
    path: str = None             # file scenario: snapshot to load
    flow: FlowConfig = field(default_factory=FlowConfig)
    outdir: str = None           # run directory, replaced atomically
    snapshot_every: int = 1000   # steps.npz snapshot cadence (accepted steps)
    series_every: int = 100      # series.csv row cadence (accepted steps)
    seed: int = 0                # reserved for perturbation presets; echoed


# --- piecewise-exact path sampling -------------------------------------------

def _sample_path(pieces, n):
    """Uniform-arclength vertices on a chain of arcs and lines.

    ``pieces`` entries are ``("arc", (cx, cy), r, th0, dth)`` (dth signed,
    positive = counterclockwise) or ``("line", (x0, y0), (ux, uy), length)``
    with a unit direction.  The chain is assumed closed and C^1.
    """
    lens = np.array([abs(p[4]) * p[2] if p[0] == "arc" else p[3]
                     for p in pieces])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    total = cum[-1]
    s = np.arange(n) * (total / n)
    idx = np.minimum(np.searchsorted(cum, s, side="right") - 1,
                     len(pieces) - 1)
    pts = np.empty((n, 2))
    for j, piece in enumerate(pieces):
        m = idx == j
        if not m.any():
            continue
        ds = s[m] - cum[j]
        if piece[0] == "arc":
            _, (cx, cy), r, th0, dth = piece
            th = th0 + np.sign(dth) * ds / r
            pts[m, 0] = cx + r * np.cos(th)
            pts[m, 1] = cy + r * np.sin(th)
        else:
            _, (x0, y0), (ux, uy), _ = piece
            pts[m, 0] = x0 + ds * ux
            pts[m, 1] = y0 + ds * uy
    return pts


# --- presets ------------------------------------------------------------------

def circle(radius=1.0, n_vertices=256, center=(0.0, 0.0)):
    if radius <= 0:
        raise BadParameters("circle radius must be positive")
    th = np.arange(n_vertices) * (2.0 * np.pi / n_vertices)
    pts = np.column_stack([center[0] + radius * np.cos(th),
                           center[1] + radius * np.sin(th)])
    return ClosedCurve(pts)


def ellipse(a=2.0, b=1.0, n_vertices=512):
    """Axis-aligned ellipse sampled at uniform parameter angle."""
    if a <= 0 or b <= 0:
        raise BadParameters("ellipse semi-axes must be positive")
    if max(a, b) > 10 * min(a, b):
        raise BadParameters("aspect ratio above 10 violates the edge-ratio bound")
    th = np.arange(n_vertices) * (2.0 * np.pi / n_vertices)
    return ClosedCurve(np.column_stack([a * np.cos(th), b * np.sin(th)]))


def capsule(eps, n_vertices=512):
    """Convex sliver of height 1 and total length exactly 2 + eps.

    Short arcs of the radius-1/2 circle centered at (0, 1/2) sit at the two
    extremal points (0,0) and (0,1), where the curvature is exactly 2 =
    2/diameter; they are closed up C^1 by corner arcs of a small radius and
    exactly vertical sides.  The pole arc half-angle is
    ``phi = max(eps/8, 3(2+eps)/N)`` so the requested vertex count resolves
    the pole arcs, and the corner radius follows from the length budget:

        R = (2 + eps - 2 phi - 2 cos phi) / (2 pi - 4 phi - 4 cos phi).

    The vertex count must be even so the poles land exactly on vertices 0
    and N/2.  The diameter equals 1 (pole to pole) and its initial growth
    rate under the area-preserving flow is 4(pi/L - 1) > 0 for L < pi.
    """
    if not 0 < eps < 1:
        raise BadParameters(f"capsule needs eps in (0, 1), got {eps}")
    if n_vertices % 2:
        raise BadParameters("capsule needs an even vertex count")
    phi = max(eps / 8.0, 3.0 * (2.0 + eps) / n_vertices)
    if phi > eps / 2.5:
        raise BadParameters(
            f"n_vertices={n_vertices} too small to resolve the pole arcs")
    R = (2.0 + eps - 2.0 * phi - 2.0 * np.cos(phi)) \
        / (2.0 * np.pi - 4.0 * phi - 4.0 * np.cos(phi))
    w = 0.5 * np.sin(phi) + R * (1.0 - np.sin(phi))   # half-width
    y2 = 0.5 - (0.5 - R) * np.cos(phi)                # side bottom height
    side = (1.0 - 2.0 * R) * np.cos(phi)              # vertical side length
    corner = np.pi / 2.0 - phi                        # corner arc sweep

    pole = (0.0, 0.5)
    pieces = [
        ("arc", pole, 0.5, -np.pi / 2.0, phi),
        ("arc", ((0.5 - R) * np.sin(phi), y2), R, phi - np.pi / 2.0, corner),
        ("line", (w, y2), (0.0, 1.0), side),
        ("arc", (w - R, 1.0 - y2), R, 0.0, corner),
        ("arc", pole, 0.5, np.pi / 2.0 - phi, 2.0 * phi),
        ("arc", (R - w, 1.0 - y2), R, np.pi / 2.0 + phi, corner),
        ("line", (-w, 1.0 - y2), (0.0, -1.0), side),
        ("arc", (R - w, y2), R, np.pi, corner),
        ("arc", pole, 0.5, -np.pi / 2.0 - phi, phi),
    ]
    return ClosedCurve(_sample_path(pieces, n_vertices))


def dumbbell(neck_width=0.1, n_vertices=512):
    """Two unit lobes joined by a straight neck of the given width.

    Lobe centers sit at (+-c, 0) with c chosen so concave inlet arcs of
    radius 0.3 join the neck lines y = +-neck_width/2, |x| <= 0.6, tangent
    to the lobes.  Facing neck vertices have opposed normals (alignment -1)
    at separation neck_width — the touch-detection benchmark.
    """
    wid = neck_width
    if not 0 < wid < 1:
        raise BadParameters(f"dumbbell needs neck_width in (0, 1), got {wid}")
    s = wid / 2.0 + 0.3                      # inlet center height
    c = 0.6 + np.sqrt(1.69 - s * s)          # lobe center abscissa
    small = np.arctan2(s, c - 0.6)           # tangency angle at the lobes
    beta = np.pi - small                     # lobe half-sweep
    inlet = -(np.pi / 2.0 - small)           # clockwise (concave) sweep

    pieces = [
        ("arc", (c, 0.0), 1.0, -beta, 2.0 * beta),
        ("arc", (0.6, s), 0.3, -small, inlet),
        ("line", (0.6, wid / 2.0), (-1.0, 0.0), 1.2),
        ("arc", (-0.6, s), 0.3, -np.pi / 2.0, inlet),
        ("arc", (-c, 0.0), 1.0, small, 2.0 * beta),
        ("arc", (-0.6, -s), 0.3, np.pi - small, inlet),
        ("line", (-0.6, -wid / 2.0), (1.0, 0.0), 1.2),
        ("arc", (0.6, -s), 0.3, np.pi / 2.0, inlet),
    ]
    return ClosedCurve(_sample_path(pieces, n_vertices))


def figure_eight(n_vertices=256):
    """Immersed eight with zero signed area and zero turning number.

    Test helper (not a runnable flow preset): exercises the near-zero-volume
    branches of the diagnostics.
    """
    t = np.arange(n_vertices) * (2.0 * np.pi / n_vertices)
    return ClosedCurve(np.column_stack([0.5 * np.sin(2.0 * t), np.sin(t)]))


_BUILDERS = {"circle", "ellipse", "capsule", "dumbbell", "file"}


def make_scenario(config):
    """Build the initial curve described by a ScenarioConfig.

    Vertex count comes from ``config.flow.n_vertices`` (file scenarios keep
    the stored count).  Raises BadParameters for unknown names or parameter
    values outside the documented ranges.
    """
    name = config.scenario
    n = config.flow.n_vertices
    if name == "circle":
        return circle(config.radius, n)
    if name == "ellipse":
        return ellipse(config.a, config.b, n)
    if name == "capsule":
        return capsule(config.eps, n)
    if name == "dumbbell":
        return dumbbell(config.neck_width, n)
    if name == "file":
        if not config.path:
            raise BadParameters("file scenario needs a path")
        return read_snapshot(config.path)
    raise BadParameters(
        f"unknown scenario {name!r}; expected one of {sorted(_BUILDERS)}")
