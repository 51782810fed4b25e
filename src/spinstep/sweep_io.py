"""Energy-grid sweeps and deterministic CSV/JSON/SVG emission.

A sweep evaluates the spin-resolved step coefficients over a grid of E/V0
ratios and returns one row per grid point, of the type scattering.coefficients
returns for one point: a PropagatingRow (T1, T2, R1, R2 and the spinless
T_QM, R_QM) above the step, an EvanescentRow (R1', R2') below it.  Each row
type carries one ordered field table, FIELDS, naming every column's
attribute, CSV header and SVG colour; the CSV header line, the JSON keys
(the attribute, except `total`, written as "sum"), the SVG column names and
colours, the CLI's default SVG columns and its point JSON all read it.
Rows are NamedTuples of their FIELDS, in order.  This module owns grids
and files only: a grid is a list of Python floats, linear or log, and
scattering._rows builds its rows; no sweep imports numpy.

Emission is deterministic: the same spec always produces byte-identical
output.  Numbers are printed with 17 significant digits, which round-trips
IEEE doubles exactly, so emitted files double as golden files.  Each field
table yields one %-template for a CSV line and one for a JSON line: a row's
CSV text is rendered once, by one call, and a JSON file is one call of its
line template, repeated once per row, over those strings.  An SVG file
renders each x pixel once, and each polyline is one call over its y pixels.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .scattering import (
    _MAX,
    ELECTRON_MASS_EV,
    EvanescentRow,
    PropagatingRow,
    Spin,
    _positive_finite,
    _rows,
)

__all__ = [
    "Spacing",
    "Regime",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "emit_svg",
    "svg_columns",
]


class Spacing(Enum):
    LINEAR = "linear"
    LOG = "log"


class Regime(Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    AUTO = "auto"


class _SweepFields(NamedTuple):
    v0: float
    mass: float = ELECTRON_MASS_EV
    e_over_v0_min: float = 1.001
    e_over_v0_max: float = 10.0
    points: int = 100
    spacing: Spacing = Spacing.LOG
    regime: Regime = Regime.AUTO
    incident_spin: Spin = Spin.UP


class SweepSpec(_SweepFields):
    """Description of one energy sweep.

    The grid ranges over x = E/V0 from e_over_v0_min to e_over_v0_max with
    `points` samples, an integer (Python or numpy); v0, mass, the bounds
    and the top energy e_over_v0_max * v0 are at most the largest double,
    and the bottom energy e_over_v0_min * v0 does not underflow to 0.
    An explicit regime constrains the range to its side of x = 1; AUTO
    admits ranges straddling 1 and splits the rows.  The constructor
    refuses anything else, and spacing, regime or incident_spin values that
    are not members of their enums; _replace and _make build through it too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _positive_finite("v0", self.v0)
        _positive_finite("mass", self.mass)
        if not -math.inf < self.e_over_v0_min < self.e_over_v0_max <= _MAX:
            raise ValueError(
                f"grid range is empty or not finite: [{self.e_over_v0_min}, {self.e_over_v0_max}]"
            )
        if self.e_over_v0_min <= 0:
            raise ValueError("e_over_v0_min must be positive")
        if float(self.e_over_v0_max) * float(self.v0) > _MAX:
            raise ValueError(
                f"the top energy e_over_v0_max * v0 = {self.e_over_v0_max} * {self.v0} eV "
                "exceeds the largest double"
            )
        if float(self.e_over_v0_min) * float(self.v0) == 0.0:
            raise ValueError(
                f"the bottom energy e_over_v0_min * v0 = {self.e_over_v0_min} * {self.v0} eV "
                "underflows to 0"
            )
        try:
            operator.index(self.points)
        except TypeError:
            raise ValueError(f"points must be an integer, got {self.points!r}") from None
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        for name, kind in (("spacing", Spacing), ("regime", Regime), ("incident_spin", Spin)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.regime is Regime.PROPAGATING and self.e_over_v0_min <= 1.0:
            raise ValueError("propagating sweeps require e_over_v0_min > 1")
        if self.regime is Regime.EVANESCENT and self.e_over_v0_max >= 1.0:
            raise ValueError("evanescent sweeps require e_over_v0_max < 1")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def grid(self) -> list:
        """The E/V0 grid as Python floats, from e_over_v0_min to
        e_over_v0_max: np.linspace's, by its formula, or, for a log grid,
        10.0 ** y over np.linspace's exponents between the bounds' log10,
        with the bounds themselves as its ends."""
        lo, hi = float(self.e_over_v0_min), float(self.e_over_v0_max)
        points = operator.index(self.points)
        if self.spacing is Spacing.LINEAR:
            return _linspace(lo, hi, points)
        exponents = _linspace(math.log10(lo), math.log10(hi), points)[1:-1]
        return [lo, *map(_exp10, exponents), hi]


def _linspace(lo: float, hi: float, points: int) -> list:
    """np.linspace(lo, hi, points) as Python floats, bit for bit."""
    span, div = hi - lo, points - 1
    step = span / div
    # a subnormal span steps by 0: numpy then scales i/div by the span
    return [i * step + lo if step else i / div * span + lo for i in range(div)] + [hi]


def _exp10(y: float) -> float:
    """10.0 ** y, or inf past the largest double, which run_sweep refuses."""
    try:
        return 10.0 ** y
    except OverflowError:
        return math.inf


class SweepResult(NamedTuple):
    """One row per grid point, in grid order: increasing E/V0 up to
    rounding.  A span of a few ulps repeats values, and a linear grid with a
    near-subnormal step can put its last point, the top bound itself, below
    the one before it."""

    rows: tuple

    @property
    def propagating_rows(self) -> tuple:
        return tuple(r for r in self.rows if isinstance(r, PropagatingRow))

    @property
    def evanescent_rows(self) -> tuple:
        return tuple(r for r in self.rows if isinstance(r, EvanescentRow))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """The grid's rows from scattering._rows, in grid order (SweepResult),
    each its point query's, or the refusal of the first refused point."""
    return SweepResult(_rows(spec.grid(), float(spec.v0), float(spec.mass), spec.incident_spin))


def format_float(value: float) -> str:
    """17-significant-digit decimal rendering (lossless double round-trip)."""
    return format(float(value), ".17g")


def _homogeneous_rows(rows) -> type:
    """The row type shared by every row, which emission requires."""
    if not rows:
        raise ValueError("no rows to emit")
    kind = type(rows[0])
    if kind not in (PropagatingRow, EvanescentRow):
        raise TypeError(f"unsupported row type {kind.__name__}")
    if set(map(type, rows)) != {kind}:
        raise ValueError(
            "mixed propagating/evanescent rows cannot share one file; "
            "emit each regime separately"
        )
    return kind


def _write_text(path, text: str):
    Path(path).write_text(text, encoding="utf-8")


def svg_columns(kind: type, columns=None) -> list:
    """The SVG columns to draw for rows of `kind`: `columns`, lower-cased and
    checked against its field table, or by default every curve but the sum
    in alphabetical order.  An empty or unknown selection raises ValueError."""
    if columns is None:
        return sorted(key for key in kind.CURVES if key != "sum")
    columns = [c.lower() for c in columns]
    if not columns:
        raise ValueError("no columns selected")
    unknown = [c for c in columns if c not in kind.CURVES]
    if unknown:
        raise ValueError(f"unknown columns for {kind.__name__}: {unknown}")
    return columns


def emit_csv(rows, path) -> None:
    """Write rows as CSV with the exact per-regime header line.

    The rows are checked to share one regime before anything is written, so
    a refused list never leaves a partial file behind.
    """
    kind = _homogeneous_rows(rows)
    _write_text(path, "\n".join([kind.CSV_HEADER, *(row._csv_text for row in rows)]) + "\n")


def emit_json(rows, path) -> None:
    """Write rows as a JSON array of row objects (17-significant-digit
    numbers, deterministic key order)."""
    line = _homogeneous_rows(rows)._JSON_LINE
    values = ",".join([row._csv_text for row in rows]).split(",")
    _write_text(path, ("[\n" + ",\n".join([line] * len(rows)) + "\n]\n") % tuple(values))


_NEUTRAL_COLORS = ("black", "green", "orange", "purple")


def emit_svg(rows, path, columns) -> None:
    """Write a self-contained SVG line chart of the selected columns against
    E/V0 (fixed 800x600 viewBox, no external assets).

    Each column draws in its field-table colour (spin up red, spin down
    blue); columns without one take the neutral colours in turn.
    """
    kind = _homogeneous_rows(rows)
    columns = svg_columns(kind, columns)

    width, height = 800, 600
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 40, 50
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    table = list(zip(*rows))  # the rows' columns, in FIELDS order
    xs = table[kind._fields.index("e_over_v0")]
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    series = [table[kind.CURVES[c][0]] for c in columns]
    y_min = min(min(v) for v in series)
    y_max = max(max(v) for v in series)
    y_min = min(y_min, 0.0)
    y_max = max(y_max, 1.0)
    y_span = y_max - y_min  # at least 1: the y axis spans [0, 1]

    def px(values):
        return [margin_left + (x - x_min) / x_span * plot_w for x in values]

    def py(values):
        return [margin_top + plot_h - (y - y_min) / y_span * plot_h for y in values]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" '
        f'x2="{margin_left}" y2="{margin_top + plot_h}" stroke="black"/>',
    ]
    fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
    y_ticks = [y_min + frac * y_span for frac in fracs]
    x_ticks = [x_min + frac * x_span for frac in fracs]
    for y_val, y_pix, x_val, x_pix in zip(y_ticks, py(y_ticks), x_ticks, px(x_ticks)):
        lines.append(
            f'<line x1="{margin_left - 4}" y1="{y_pix:.2f}" x2="{margin_left}" '
            f'y2="{y_pix:.2f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{margin_left - 8}" y="{y_pix + 4:.2f}" text-anchor="end" '
            f'font-size="12">{y_val:.2f}</text>'
        )
        lines.append(
            f'<line x1="{x_pix:.2f}" y1="{margin_top + plot_h}" x2="{x_pix:.2f}" '
            f'y2="{margin_top + plot_h + 4}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{x_pix:.2f}" y="{margin_top + plot_h + 18}" '
            f'text-anchor="middle" font-size="12">{x_val:.3g}</text>'
        )
    lines.append(
        f'<text x="{margin_left + plot_w / 2:.0f}" y="{height - 12}" '
        f'text-anchor="middle" font-size="13">E / V0</text>'
    )
    # x pixels rendered once per file, into the template every polyline fills
    points_line = " ".join(map("%.3f,%%.3f".__mod__, px(xs)))
    neutral = iter(_NEUTRAL_COLORS)
    for idx, (column, values) in enumerate(zip(columns, series)):
        color = kind.CURVES[column][1] or next(neutral, "gray")
        points = points_line % tuple(py(values))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        legend_y = margin_top + 16 * (idx + 1)
        lines.append(
            f'<line x1="{margin_left + plot_w - 90}" y1="{legend_y - 4}" '
            f'x2="{margin_left + plot_w - 64}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{margin_left + plot_w - 58}" y="{legend_y}" '
            f'font-size="12">{column}</text>'
        )
    lines.append("</svg>")
    _write_text(path, "\n".join(lines) + "\n")
