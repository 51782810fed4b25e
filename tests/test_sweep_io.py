import hashlib
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from spinstep import scattering
from spinstep.scattering import (
    ELECTRON_MASS_EV,
    Spin,
    StepProblem,
    closed_form_amplitudes,
    coefficients,
    currents,
)
from spinstep.sweep_io import (
    EvanescentRow,
    PropagatingRow,
    Regime,
    Spacing,
    SweepSpec,
    emit_csv,
    emit_json,
    emit_svg,
    format_float,
    run_sweep,
    svg_columns,
)


def small_prop_spec(**kwargs):
    defaults = dict(
        v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0, points=20,
        spacing=Spacing.LOG, regime=Regime.PROPAGATING,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_prop_spec(points=1)
    with pytest.raises(ValueError):
        small_prop_spec(e_over_v0_min=5.0, e_over_v0_max=2.0)
    with pytest.raises(ValueError):
        small_prop_spec(e_over_v0_min=0.5)  # propagating requires min > 1
    with pytest.raises(ValueError):
        SweepSpec(v0=100.0, e_over_v0_min=0.1, e_over_v0_max=2.0,
                  points=10, regime=Regime.EVANESCENT)
    with pytest.raises(ValueError):
        small_prop_spec(v0=-5.0)
    # the boundaries themselves are refused
    with pytest.raises(ValueError):
        small_prop_spec(e_over_v0_min=0.0, regime=Regime.AUTO)
    with pytest.raises(ValueError):
        small_prop_spec(e_over_v0_min=1.0)
    with pytest.raises(ValueError):
        SweepSpec(v0=100.0, e_over_v0_min=0.1, e_over_v0_max=1.0,
                  points=10, regime=Regime.EVANESCENT)
    for bad in (dict(v0=0.0), dict(mass=0.0), dict(e_over_v0_min=2.0, e_over_v0_max=2.0)):
        with pytest.raises(ValueError):
            small_prop_spec(**bad)
    # an int beyond the double range is refused, not an OverflowError, and
    # the largest double is accepted (as v0 on a grid below the step, whose
    # top energy stays within the double range)
    below = dict(e_over_v0_min=0.1, e_over_v0_max=0.5, regime=Regime.EVANESCENT)
    for name in ("v0", "mass"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            small_prop_spec(**{name: 10**400})
        largest = small_prop_spec(**below, **{name: sys.float_info.max})
        assert getattr(largest, name) == sys.float_info.max
    with pytest.raises(ValueError, match="not finite"):
        small_prop_spec(e_over_v0_min=-math.inf, regime=Regime.AUTO)
    # the first double above the step is a propagating sweep's lowest bound
    assert small_prop_spec(e_over_v0_min=math.nextafter(1.0, 2.0)).e_over_v0_min > 1.0


def test_spec_refuses_a_top_energy_beyond_the_double_range():
    # e_over_v0_max * v0 overflows: refused with both values, not left for
    # run_sweep to report E = inf
    with pytest.raises(ValueError, match=r"e_over_v0_max \* v0 = 1e\+308 \* 100.0 eV") as refused:
        SweepSpec(v0=100.0, e_over_v0_min=1.5, e_over_v0_max=1e308, points=3)
    assert type(refused.value) is ValueError
    with pytest.raises(ValueError, match="exceeds the largest double"):
        SweepSpec(v0=2.0, e_over_v0_min=1.5, e_over_v0_max=sys.float_info.max)
    assert SweepSpec(v0=2.0, e_over_v0_min=1.5, e_over_v0_max=sys.float_info.max / 2)
    # the largest double itself is a top bound, where the top energy fits
    assert SweepSpec(v0=0.5, e_over_v0_min=1.5, e_over_v0_max=sys.float_info.max)


def test_spec_refuses_a_bottom_energy_that_underflows_to_0():
    # e_over_v0_min * v0 rounds to 0: refused with both values, as the top
    # energy is, where the sweep would write an E = 0 row that a point query
    # refuses; a subnormal bottom energy is still a row
    for spacing in Spacing:
        with pytest.raises(
            ValueError, match=r"e_over_v0_min \* v0 = 1e-250 \* 1e-100 eV underflows to 0"
        ) as refused:
            SweepSpec(v0=1e-100, mass=1e-100, e_over_v0_min=1e-250, e_over_v0_max=0.5,
                      points=3, spacing=spacing, regime=Regime.EVANESCENT)
        assert type(refused.value) is ValueError
    # the grid kernel refuses such an energy as StepProblem does
    with pytest.raises(ValueError, match="^energy must be positive and finite, got 0.0$"):
        scattering._rows([1e-250, 0.5], 1e-100, 1e-100, Spin.UP)
    spec = SweepSpec(v0=1e-100, mass=1e-100, e_over_v0_min=1e-220, e_over_v0_max=0.5,
                     points=3, spacing=Spacing.LINEAR, regime=Regime.EVANESCENT)
    assert run_sweep(spec).rows[0].e_ev == 1e-220 * 1e-100 > 0.0


def test_spec_defaults():
    assert SweepSpec(v0=100.0) == SweepSpec(
        100.0, ELECTRON_MASS_EV, 1.001, 10.0, 100, Spacing.LOG, Regime.AUTO, Spin.UP
    )


def test_spec_points_must_be_an_integer():
    # a float count used to be accepted, and np.logspace then raised TypeError
    for points in (5.5, 5.0, "5"):
        with pytest.raises(ValueError, match="points must be an integer"):
            small_prop_spec(points=points)
    assert len(run_sweep(small_prop_spec(points=np.int64(5))).rows) == 5


@pytest.mark.parametrize("field, value", [
    ("spacing", "linear"), ("regime", "propagating"), ("incident_spin", "up"),
])
def test_spec_enum_fields_refuse_non_members(field, value):
    # not coerced: spacing and regime are compared by identity, so a string
    # would silently sweep AUTO on a log grid, past the range checks
    with pytest.raises(ValueError, match=field):
        SweepSpec(v0=100.0, e_over_v0_min=0.5, e_over_v0_max=2.0, points=5,
                  **{field: value})


def test_spec_replace_validates_like_the_constructor():
    spec = small_prop_spec()
    assert spec._replace(points=3) == small_prop_spec(points=3)
    with pytest.raises(ValueError, match="points"):
        spec._replace(points=1)
    with pytest.raises(ValueError, match="propagating sweeps"):
        spec._replace(e_over_v0_min=0.5)
    with pytest.raises(ValueError, match="regime"):
        spec._replace(regime="auto")


def test_value_types_are_read_only():
    problem = StepProblem(energy=200.0, v0=100.0)
    amps = closed_form_amplitudes(problem)
    for value, field in (
        (problem, "energy"),
        (small_prop_spec(), "points"),
        (run_sweep(small_prop_spec(points=3)).rows[0], "t1"),
        (coefficients(problem, amps), "total"),
        (amps, "b"),
        (currents(problem, amps), "j_inc"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.5)


def test_run_sweep_row_count_and_order():
    result = run_sweep(small_prop_spec(points=33))
    assert len(result.rows) == 33
    energies = [row.e_ev for row in result.rows]
    assert energies == sorted(energies)
    assert all(type(r) is PropagatingRow for r in result.rows)
    for row in result.rows:
        assert abs(row.total - 1.0) <= 1e-12


def test_two_point_grid():
    result = run_sweep(small_prop_spec(points=2))
    assert len(result.rows) == 2


def test_evanescent_sweep_rows():
    spec = SweepSpec(
        v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99, points=25,
        spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
    )
    result = run_sweep(spec)
    assert len(result.rows) == 25
    assert all(type(r) is EvanescentRow for r in result.rows)
    # reflection flips increasingly with energy below the mass scale
    r2 = [row.r2_prime for row in result.rows]
    assert all(b > a for a, b in zip(r2, r2[1:]))


def test_auto_sweep_splits_at_threshold_into_point_query_rows():
    spec = SweepSpec(
        v0=100.0, e_over_v0_min=0.5, e_over_v0_max=2.0, points=31,
        spacing=Spacing.LINEAR, regime=Regime.AUTO,
    )
    # linear grid from 0.5 to 2.0 with 31 points hits x = 1.0 exactly: E = V0
    # is a row of the evanescent branch, as its point query is
    result = run_sweep(spec)
    assert len(result.rows) == 31
    assert len(result.evanescent_rows) == 11
    assert len(result.propagating_rows) == 20
    row = result.evanescent_rows[-1]
    assert (row.e_ev, row.e_over_v0) == (100.0, 1.0)
    assert_rows_are_point_queries(spec, result.rows)


def assert_rows_are_point_queries(spec, rows):
    """Each row is its point query's, bit for bit, but for e_over_v0: the
    grid value in a row, E/V0 for a point."""
    for row in rows:
        problem = StepProblem(row.e_ev, spec.v0, spec.mass, spec.incident_spin)
        point = coefficients(problem, closed_form_amplitudes(problem))
        assert np.array(row).tobytes() == np.array(point._replace(e_over_v0=row.e_over_v0)).tobytes()


@pytest.mark.parametrize("spin", (Spin.UP, Spin.DOWN))
def test_sweep_on_mass_pole_row_equals_its_point_query(spin):
    # the middle grid point has E = m and V0 - E = m: a row, equal to its
    # point query field for field, with R1' = (E-m)^2/(E+m)^2 = 0 for spin up
    spec = SweepSpec(
        v0=2 * ELECTRON_MASS_EV, mass=ELECTRON_MASS_EV, e_over_v0_min=0.25,
        e_over_v0_max=0.75, points=3, spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
        incident_spin=spin,
    )
    result = run_sweep(spec)
    assert len(result.rows) == 3
    row = result.rows[1]
    assert spec.v0 - row.e_ev == row.e_ev == ELECTRON_MASS_EV
    problem = StepProblem(row.e_ev, spec.v0, spec.mass, spin)
    assert row == coefficients(problem, closed_form_amplitudes(problem))
    keep_flip = (0.0, 1.0) if spin is Spin.UP else (1.0, 0.0)
    assert (row.r1_prime, row.r2_prime, row.total) == (*keep_flip, 1.0)


@pytest.mark.parametrize("spec", [
    SweepSpec(v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0, points=500,
              spacing=Spacing.LOG, regime=Regime.PROPAGATING),
    SweepSpec(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0, points=200,
              spacing=Spacing.LOG, regime=Regime.PROPAGATING),
    SweepSpec(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99, points=100,
              spacing=Spacing.LINEAR, regime=Regime.EVANESCENT),
], ids=["fig2", "fig3", "fig4"])
def test_sweep_rows_equal_point_queries(spec):
    # a sweep, on a log or a linear grid, and the point route agree bit for
    # bit
    assert_rows_are_point_queries(spec, run_sweep(spec).rows)


def test_sweep_rows_next_to_threshold_equal_their_point_queries():
    # the branch is decided on E = x*V0, as a point query decides it: each
    # grid point next to E = V0 is a row, on whichever side of the
    # threshold its energy falls; the first grid's last energy rounds to
    # within 1e-9 of V0, the second's not
    for v0, x_max in ((0.0022254112628702933, 0.9999999989999999),
                      (36951.74852416012, 0.999999999)):
        spec = SweepSpec(
            v0=v0, e_over_v0_min=0.5, e_over_v0_max=x_max,
            points=2, spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
        )
        result = run_sweep(spec)
        assert len(result.evanescent_rows) == 2
        assert_rows_are_point_queries(spec, result.rows)


def test_grid_straddling_threshold_within_1e_10_is_all_rows():
    # every point of a grid within 1e-10 of E = V0 is a row, E = V0 itself
    # on the evanescent branch, as its point query is
    spec = SweepSpec(
        v0=100.0, e_over_v0_min=1 - 1e-10, e_over_v0_max=1 + 1e-10,
        points=3, spacing=Spacing.LINEAR, regime=Regime.AUTO,
    )
    result = run_sweep(spec)
    assert [len(result.evanescent_rows), len(result.propagating_rows)] == [2, 1]
    assert result.evanescent_rows[-1].e_ev == spec.v0
    assert_rows_are_point_queries(spec, result.rows)


# every positive double, subnormals and the largest included
POSITIVE_DOUBLES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _linspace(lo, hi, points):
    # near the largest double numpy's last point, (n - 1)*step + lo, can
    # overflow before it is set to hi
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, points)


@settings(max_examples=300, deadline=None)
# a subnormal span: the step (hi - lo)/(n - 1) is 0, and numpy scales i/div
# by the span instead
@example(bounds=(5e-324, 1.5e-323), points=100)
@example(bounds=(0.01, 0.99), points=np.int64(100))
@given(bounds=st.tuples(POSITIVE_DOUBLES, POSITIVE_DOUBLES), points=st.integers(2, 2000))
def test_linear_grid_is_np_linspace_bit_for_bit(bounds, points):
    lo, hi = sorted(bounds)
    assume(lo < hi)
    grid = SweepSpec(v0=1.0, e_over_v0_min=lo, e_over_v0_max=hi, points=points,
                     spacing=Spacing.LINEAR).grid()
    assert type(grid) is list and {type(x) for x in grid} == {float}
    assert np.array(grid).tobytes() == _linspace(lo, hi, points).tobytes()


def _exp10(y: float) -> float:
    try:
        return 10.0 ** y
    except OverflowError:
        return math.inf


@settings(max_examples=300, deadline=None)
# 10.0 ** y of every interior exponent overflows: inf
@example(bounds=(1.7976931348623155e308, 1.7976931348623157e308), points=4)
@example(bounds=(5e-324, 1.7976931348623157e308), points=2000)
@example(bounds=(1.001, 10.0), points=np.int64(500))
@given(bounds=st.tuples(POSITIVE_DOUBLES, POSITIVE_DOUBLES), points=st.integers(2, 2000))
def test_log_grid_is_the_bounds_around_10_to_np_linspace_exponents(bounds, points):
    # the ends are the spec's bounds; each interior point is 10.0 ** y, a
    # Python float (inf where that overflows), over np.linspace's exponents
    # between math.log10 of the bounds, bit for bit
    lo, hi = sorted(bounds)
    assume(lo < hi)
    grid = SweepSpec(v0=1.0, e_over_v0_min=lo, e_over_v0_max=hi, points=points,
                     spacing=Spacing.LOG).grid()
    exponents = np.linspace(math.log10(lo), math.log10(hi), points)[1:-1].tolist()
    want = [lo] + [_exp10(y) for y in exponents] + [hi]
    assert type(grid) is list and {type(x) for x in grid} == {float}
    assert list(map(float.hex, grid)) == list(map(float.hex, want))


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_figure_log_grids_are_within_1_ulp_of_10_to_their_exponents(name):
    # each point of the README log grids, the ends included, lies within 1
    # ulp of 10**y at 50 digits, y its exponent, as np.linspace spaces them
    spec = FIGURE_DIGESTS[name][0]
    lo, hi = float(spec.e_over_v0_min), float(spec.e_over_v0_max)
    exponents = np.linspace(math.log10(lo), math.log10(hi), spec.points).tolist()
    grid = spec.grid()
    assert len(grid) == len(exponents) == spec.points
    with mpmath.workdps(50):
        for x, y in zip(grid, exponents):
            assert abs(mpmath.mpf(x) - mpmath.power(10, mpmath.mpf(y))) <= math.ulp(x), (x, y)


def _outcome(evaluate):
    """Rows as (type, value bits), or a refusal: its kind and its message."""
    try:
        rows = evaluate()
    except ValueError as exc:
        return type(exc), str(exc)
    assert all(type(v) is float for row in rows for v in row)
    return [(type(row), tuple(map(float.hex, row))) for row in rows]


SPEC_VALUES = dict(
    v0=POSITIVE_DOUBLES,
    mass=POSITIVE_DOUBLES,
    bounds=st.one_of(
        st.tuples(POSITIVE_DOUBLES, POSITIVE_DOUBLES),
        # straddling x = 1: both branches in one AUTO sweep
        st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.floats(1.0, 1e300)),
    ),
    points=st.integers(2, 40),
    spin=st.sampled_from(Spin),
)


def _point_queries(spec) -> list:
    """The point route over the spec's grid values: each point query's row,
    with the grid value as its e_over_v0, up to the first refusal."""
    rows = []
    for x in map(float, spec.grid()):
        problem = StepProblem(x * float(spec.v0), spec.v0, spec.mass, spec.incident_spin)
        rows.append(coefficients(problem, closed_form_amplitudes(problem))._replace(e_over_v0=x))
    return rows


@settings(max_examples=300, deadline=None)
# every grid point's denominator underflows to 0, and the sweep says what
# the first point says
@example(v0=1e-300, mass=1e-300, bounds=(0.1, 0.5), points=5, spin=Spin.UP,
         spacing=Spacing.LOG)
@example(v0=1e-300, mass=1e-300, bounds=(0.1, 0.5), points=5, spin=Spin.DOWN,
         spacing=Spacing.LINEAR)
# finite probabilities that fail the unit sum, named at their energy
@example(v0=1.5733035492803722e234, mass=2.5821339805390623e211, bounds=(1e-186, 1e-185),
         points=3, spin=Spin.DOWN, spacing=Spacing.LOG)
@example(v0=100.0, mass=ELECTRON_MASS_EV, bounds=(0.5, 2.0), points=31, spin=Spin.DOWN,
         spacing=Spacing.LOG)
@example(v0=100.0, mass=ELECTRON_MASS_EV, bounds=(0.5, 2.0), points=np.int64(7), spin=Spin.UP,
         spacing=Spacing.LINEAR)
# a log grid's top is its bound, whose probabilities overflow, and an
# interior point whose 10.0 ** y overflows is inf: each refused as its point
# query is
@example(v0=1.0, mass=1.0, bounds=(1.5, 1.7976931348622103e308), points=2, spin=Spin.UP,
         spacing=Spacing.LOG)
@example(v0=1e-300, mass=1.0, bounds=(1.7976931348623155e308, 1.7976931348623157e308), points=4,
         spin=Spin.UP, spacing=Spacing.LOG)
@given(**SPEC_VALUES, spacing=st.sampled_from(Spacing))
def test_sweep_returns_or_refuses_as_its_point_queries(v0, mass, bounds, points, spin, spacing):
    # linear and log grids across the double range, both spins: a sweep's
    # rows are its point queries' over the same grid values, bit for bit,
    # or it raises the refusal of the first refused point, type and message
    lo, hi = sorted(bounds)
    try:
        spec = SweepSpec(v0=v0, mass=mass, e_over_v0_min=lo, e_over_v0_max=hi,
                         points=points, spacing=spacing, incident_spin=spin)
    except ValueError:
        reject()
    want = _outcome(lambda: _point_queries(spec))
    assert _outcome(lambda: run_sweep(spec).rows) == want


def test_format_float_round_trips():
    values = [1.0, 1 / 3, 0.1 + 0.2, 1e-300, 123456.789, np.pi * 1e6]
    for v in values:
        assert float(format_float(v)) == v


def test_csv_exact_header_and_round_trip(tmp_path):
    result = run_sweep(small_prop_spec(points=7))
    path = tmp_path / "out.csv"
    emit_csv(result.rows, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == PropagatingRow.CSV_HEADER
    assert lines[0] == "E_eV,E_over_V0,T1,T2,R1,R2,sum,T_QM,R_QM"
    assert len(lines) == 8
    for line, row in zip(lines[1:], result.rows):
        parsed = [float(tok) for tok in line.split(",")]
        assert parsed == list(row.to_json_dict().values())


def test_evanescent_csv_header(tmp_path):
    spec = SweepSpec(
        v0=100.0, e_over_v0_min=0.1, e_over_v0_max=0.9, points=5,
        spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
    )
    path = tmp_path / "evan.csv"
    emit_csv(run_sweep(spec).rows, path)
    assert path.read_text().split("\n")[0] == EvanescentRow.CSV_HEADER


def test_csv_deterministic_bytes(tmp_path):
    spec = small_prop_spec(points=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(spec).rows, a)
    emit_csv(run_sweep(spec).rows, b)
    assert a.read_bytes() == b.read_bytes()


def test_json_emission(tmp_path):
    result = run_sweep(small_prop_spec(points=4))
    path = tmp_path / "out.json"
    emit_json(result.rows, path)
    payload = json.loads(path.read_text())
    assert len(payload) == 4
    for obj, row in zip(payload, result.rows):
        assert obj["e_ev"] == row.e_ev
        assert obj["t1"] == row.t1
        assert obj["sum"] == row.total
        assert set(obj) == {"e_ev", "e_over_v0", "t1", "t2", "r1", "r2",
                            "sum", "t_qm", "r_qm"}


def test_emit_rejects_empty_and_mixed(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "empty.csv")
    prop = run_sweep(small_prop_spec(points=3)).rows
    evan = run_sweep(SweepSpec(
        v0=100.0, e_over_v0_min=0.1, e_over_v0_max=0.9, points=3,
        spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
    )).rows
    with pytest.raises(ValueError):
        emit_csv(list(prop) + list(evan), tmp_path / "mixed.csv")


def test_emit_refuses_rows_that_are_not_a_row_type(tmp_path):
    # tuples of the right length are not rows: each emitter raises
    # TypeError before it writes anything
    rows = [tuple(run_sweep(small_prop_spec(points=3)).rows[0])]
    for emit, extra in ((emit_csv, ()), (emit_json, ()), (emit_svg, (None,))):
        target = tmp_path / f"never.{emit.__name__}"
        with pytest.raises(TypeError, match="^unsupported row type tuple$"):
            emit(rows, target, *extra)
        assert not target.exists()


def test_emission_aborts_on_bad_row_without_partial_file(tmp_path):
    rows = list(run_sweep(small_prop_spec(points=3)).rows)
    evan = run_sweep(SweepSpec(
        v0=100.0, e_over_v0_min=0.1, e_over_v0_max=0.9, points=3,
        spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
    )).rows
    target = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit_csv(rows + list(evan), target)
    assert not target.exists()


def test_svg_polylines_and_colors(tmp_path):
    result = run_sweep(small_prop_spec(points=12))
    path = tmp_path / "fig.svg"
    emit_svg(result.rows, path, ["t1", "t2"])
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert 'stroke="red"' in text
    assert 'stroke="blue"' in text
    assert text.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in text
    # self-contained: no external references
    assert "href" not in text and "url(" not in text


def test_svg_rejects_unknown_columns(tmp_path):
    result = run_sweep(small_prop_spec(points=3))
    with pytest.raises(ValueError):
        emit_svg(result.rows, tmp_path / "bad.svg", ["r1_prime"])
    with pytest.raises(ValueError):
        emit_svg(result.rows, tmp_path / "bad.svg", [])


def test_rows_match_qm_reference_columns():
    result = run_sweep(small_prop_spec(points=9))
    for row in result.rows:
        assert row.t1 + row.t2 == pytest.approx(row.t_qm, abs=1e-10)
        assert row.r1 + row.r2 == pytest.approx(row.r_qm, abs=1e-10)


# sha256 prefixes of the JSON and SVG files of the README figure sweeps; the
# SVGs draw the CLI's default columns
FIGURE_DIGESTS = {
    "fig2": (
        SweepSpec(v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0, points=500,
                  spacing=Spacing.LOG, regime=Regime.PROPAGATING),
        ["r1", "r2", "r_qm", "t1", "t2", "t_qm"], "3c8aa165b144", "d6d55d287de8",
    ),
    "fig3": (
        SweepSpec(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0, points=200,
                  spacing=Spacing.LOG, regime=Regime.PROPAGATING),
        ["r1", "r2", "r_qm", "t1", "t2", "t_qm"], "d8a865f81b2e", "9646c7e29a85",
    ),
    "fig4": (
        SweepSpec(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99, points=100,
                  spacing=Spacing.LINEAR, regime=Regime.EVANESCENT),
        ["r1_prime", "r2_prime"], "957f149b1dd0", "3bd884784d13",
    ),
}


@pytest.mark.parametrize("spin", (Spin.UP, Spin.DOWN))
def test_figure_sweeps_never_leave_the_inline_loop(spin, monkeypatch):
    # every point of the README figure grids, for either spin, is a row of
    # the grid kernel's inline loop: a fault in its copy of _amplitudes' and
    # _curves' expressions that failed its checks would otherwise be hidden
    # by the fallback through those functions, which gives the same rows
    def fallback(*args):
        raise AssertionError(f"a figure grid point left the inline loop: {args}")

    monkeypatch.setattr(scattering, "_curves", fallback)
    for spec, _, _, _ in FIGURE_DIGESTS.values():
        assert len(run_sweep(spec._replace(incident_spin=spin)).rows) == spec.points


# (v0, mass, x, spin, field): at E = x*V0 the field's probability rounds to
# just above 1, and _curves clamps it onto 1; above the step T1 for spin up
# and spin down (where it is the spin-flip amplitude's), below it R1' and R2'
ROUNDED_ABOVE_1 = [
    (3.6362014636883506e-09, 0.0015549837736526437, 711839710623.6373, Spin.UP, "t1"),
    (1.3517363289418365e-07, 0.029171641245609517, 28134124.424852043, Spin.DOWN, "t2"),
    (5.261524390616726e+16, 3.2271512355345195e+37, 0.8158390539403405, Spin.UP, "r1_prime"),
    (1.1628988062537662e+19, 1.6665856974596367e+25, 1.222501005617556e-22, Spin.DOWN,
     "r2_prime"),
]


@pytest.mark.parametrize("v0, mass, x, spin, field", ROUNDED_ABOVE_1)
def test_a_probability_rounded_above_1_is_clamped_in_a_sweep(v0, mass, x, spin, field):
    # the inline loop keeps only probabilities <= 1 and leaves this point to
    # _curves, which clamps it, as at its point query
    spec = SweepSpec(v0=v0, mass=mass, e_over_v0_min=x / 2, e_over_v0_max=x, points=2,
                     spacing=Spacing.LINEAR, incident_spin=spin)
    rows = run_sweep(spec).rows
    assert getattr(rows[-1], field) == 1.0
    assert_rows_are_point_queries(spec, rows)


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_json_and_svg_bytes_are_pinned(name, tmp_path):
    # the figures draw the default columns: every curve but the sum, sorted
    spec, columns, json_digest, svg_digest = FIGURE_DIGESTS[name]
    rows = run_sweep(spec).rows
    assert svg_columns(type(rows[0])) == columns
    emit_json(rows, tmp_path / "out.json")
    emit_svg(rows, tmp_path / "out.svg", None)
    for path, want in ((tmp_path / "out.json", json_digest), (tmp_path / "out.svg", svg_digest)):
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == want


# (figure whose rows are drawn, columns as a user types them, sha256 prefix):
# an explicit order in mixed case, whose sum and T_QM take the neutral
# colours, and an evanescent selection
SELECTED_SVG_DIGESTS = {
    "fig2 T_QM,sum,r1": ("fig2", ["T_QM", "sum", "r1"], "fd75f85ba202"),
    "fig4 sum,r2_prime": ("fig4", ["sum", "r2_prime"], "db65f002ed80"),
}


@pytest.mark.parametrize("name", sorted(SELECTED_SVG_DIGESTS))
def test_svg_bytes_of_selected_columns_are_pinned(name, tmp_path):
    figure, columns, want = SELECTED_SVG_DIGESTS[name]
    path = tmp_path / "out.svg"
    emit_svg(run_sweep(FIGURE_DIGESTS[figure][0]).rows, path, columns)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == want


# any finite double, with the edges of the range, signed zero, subnormals and
# integral values drawn on purpose
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7e308, -1.7e308, 1.7976931348623157e308]),
    st.integers(min_value=-(2**53), max_value=2**53).map(float),
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from((PropagatingRow, EvanescentRow)),
    data=st.data(),
)
def test_emitted_bytes_equal_per_value_rendering(kind, data, tmp_path_factory):
    width = len(kind.FIELDS) - 1  # every field but the unit sum
    values = data.draw(st.lists(st.lists(finite, min_size=width, max_size=width),
                                min_size=1, max_size=6))
    total = [attr for attr, _, _ in kind.FIELDS].index("total")
    rows = [kind(*v[:total], 1.0, *v[total:]) for v in values]
    csv_lines = [kind.CSV_HEADER]
    csv_lines += [",".join(map(format_float, row.to_json_dict().values())) for row in rows]
    json_lines = [
        "  {" + ", ".join(f'"{k}": {format_float(v)}' for k, v in row.to_json_dict().items()) + "}"
        for row in rows
    ]
    out = tmp_path_factory.mktemp("emit")
    emit_csv(rows, out / "rows.csv")
    emit_json(rows, out / "rows.json")
    assert (out / "rows.csv").read_text().split("\n") == csv_lines + [""]
    assert (out / "rows.json").read_text().split("\n") == (
        ["["] + [line + "," for line in json_lines[:-1]] + json_lines[-1:] + ["]", ""]
    )


def svg_per_value(kind, rows, columns) -> str:
    """The SVG emit_svg writes, each number formatted on its own: the plot
    area spans x 70..780 and y 40..550 of an 800x600 view box."""
    keys = [c.lower() for c in columns]
    xs = [row.e_over_v0 for row in rows]
    series = [[row[kind._KEYS.index(key)] for row in rows] for key in keys]
    x_min = min(xs)
    x_span = (max(xs) - x_min) or 1.0
    y_min = min(min(min(ys) for ys in series), 0.0)
    y_span = max(max(max(ys) for ys in series), 1.0) - y_min

    def px(x):
        return 70 + (x - x_min) / x_span * 710

    def py(y):
        return 40 + 510 - (y - y_min) / y_span * 510

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">',
        '<rect width="100%" height="100%" fill="white"/>',
        '<line x1="70" y1="550" x2="780" y2="550" stroke="black"/>',
        '<line x1="70" y1="40" x2="70" y2="550" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y_val, x_val = y_min + frac * y_span, x_min + frac * x_span
        y_pix, x_pix = py(y_val), px(x_val)
        lines += [
            f'<line x1="66" y1="{y_pix:.2f}" x2="70" y2="{y_pix:.2f}" stroke="black"/>',
            f'<text x="62" y="{y_pix + 4:.2f}" text-anchor="end" font-size="12">{y_val:.2f}</text>',
            f'<line x1="{x_pix:.2f}" y1="550" x2="{x_pix:.2f}" y2="554" stroke="black"/>',
            f'<text x="{x_pix:.2f}" y="568" text-anchor="middle" font-size="12">{x_val:.3g}</text>',
        ]
    lines.append('<text x="425" y="588" text-anchor="middle" font-size="13">E / V0</text>')
    neutral = iter(["black", "green", "orange", "purple"])
    for legend_y, key, ys in zip(range(56, 600, 16), keys, series):
        colour = kind.FIELDS[kind._KEYS.index(key)][2] or next(neutral, "gray")
        points = " ".join("%.3f,%.3f" % (px(x), py(y)) for x, y in zip(xs, ys))
        lines += [
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" points="{points}"/>',
            f'<line x1="690" y1="{legend_y - 4}" x2="716" y2="{legend_y - 4}" '
            f'stroke="{colour}" stroke-width="1.5"/>',
            f'<text x="722" y="{legend_y}" font-size="12">{key}</text>',
        ]
    return "\n".join([*lines, "</svg>", ""])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from((PropagatingRow, EvanescentRow)),
    data=st.data(),
)
def test_svg_bytes_equal_per_value_rendering(kind, data, tmp_path_factory):
    # rows of any finite values, a single row (zero x span) included, and
    # any selection of curves, repeated and upper-cased ones included
    width = len(kind.FIELDS)
    values = data.draw(st.lists(st.lists(finite, min_size=width, max_size=width),
                                min_size=1, max_size=6))
    rows = [kind(*v) for v in values]
    keys = [key for key in kind._KEYS if key not in ("e_ev", "e_over_v0")]
    columns = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys) + 2))
    typed = [c.upper() if data.draw(st.booleans()) else c for c in columns]
    path = tmp_path_factory.mktemp("svg") / "rows.svg"
    emit_svg(rows, path, typed)
    assert path.read_bytes() == svg_per_value(kind, rows, typed).encode()
