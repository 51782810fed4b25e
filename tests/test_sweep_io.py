import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstep.eigensystem import ELECTRON_MASS_EV
from spinstep.scattering import (
    MassPoleError,
    StepProblem,
    ThresholdDegeneracyError,
    closed_form_amplitudes,
    coefficients,
    currents,
    qm_reference,
)
from spinstep.sweep_io import (
    EvanescentRow,
    PropagatingRow,
    Regime,
    Spacing,
    SweepSpec,
    _json_object,
    emit_csv,
    emit_json,
    emit_svg,
    format_float,
    run_sweep,
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
    assert result.skipped == 0
    energies = [row.e_ev for row in result.rows]
    assert energies == sorted(energies)
    assert all(isinstance(r, PropagatingRow) for r in result.rows)
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
    assert all(isinstance(r, EvanescentRow) for r in result.rows)
    # reflection flips increasingly with energy below the mass scale
    r2 = [row.r2_prime for row in result.rows]
    assert all(b > a for a, b in zip(r2, r2[1:]))


def test_auto_sweep_splits_and_skips_threshold():
    spec = SweepSpec(
        v0=100.0, e_over_v0_min=0.5, e_over_v0_max=2.0, points=31,
        spacing=Spacing.LINEAR, regime=Regime.AUTO,
    )
    # linear grid from 0.5 to 2.0 with 31 points hits x = 1.0 exactly
    result = run_sweep(spec)
    assert result.skipped == 1
    assert len(result.rows) == 30
    assert len(result.evanescent_rows) == 10
    assert len(result.propagating_rows) == 20


def test_sweep_refuses_mass_pole():
    # the middle grid point has E = m and V0 - E = m
    spec = SweepSpec(
        v0=2 * ELECTRON_MASS_EV, mass=ELECTRON_MASS_EV, e_over_v0_min=0.25,
        e_over_v0_max=0.75, points=3, spacing=Spacing.LINEAR, regime=Regime.EVANESCENT,
    )
    with pytest.raises(MassPoleError):
        run_sweep(spec)


@pytest.mark.parametrize("spec", [
    SweepSpec(v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0, points=500,
              spacing=Spacing.LOG, regime=Regime.PROPAGATING),
    SweepSpec(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0, points=200,
              spacing=Spacing.LOG, regime=Regime.PROPAGATING),
    SweepSpec(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99, points=100,
              spacing=Spacing.LINEAR, regime=Regime.EVANESCENT),
], ids=["fig2", "fig3", "fig4"])
def test_sweep_rows_equal_point_queries(spec):
    # the vectorized sweep and the scalar point route agree bit for bit,
    # but for e_over_v0: the grid value in a row, E/V0 for a point
    for row in run_sweep(spec).rows:
        problem = StepProblem(energy=row.e_ev, v0=spec.v0, mass=spec.mass)
        point = coefficients(problem, closed_form_amplitudes(problem))
        assert row == point._replace(e_over_v0=row.e_over_v0)


def test_entirely_degenerate_grid_raises():
    spec = SweepSpec(
        v0=100.0, e_over_v0_min=1 - 1e-10, e_over_v0_max=1 + 1e-10,
        points=3, spacing=Spacing.LINEAR, regime=Regime.AUTO,
    )
    with pytest.raises(ThresholdDegeneracyError):
        run_sweep(spec)


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
        ["r1", "r2", "r_qm", "t1", "t2", "t_qm"], "40a18090f748", "d6d55d287de8",
    ),
    "fig3": (
        SweepSpec(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0, points=200,
                  spacing=Spacing.LOG, regime=Regime.PROPAGATING),
        ["r1", "r2", "r_qm", "t1", "t2", "t_qm"], "0ab4b242a84f", "9646c7e29a85",
    ),
    "fig4": (
        SweepSpec(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99, points=100,
                  spacing=Spacing.LINEAR, regime=Regime.EVANESCENT),
        ["r1_prime", "r2_prime"], "957f149b1dd0", "3bd884784d13",
    ),
}


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_json_and_svg_bytes_are_pinned(name, tmp_path):
    spec, columns, json_digest, svg_digest = FIGURE_DIGESTS[name]
    rows = run_sweep(spec).rows
    emit_json(rows, tmp_path / "out.json")
    emit_svg(rows, tmp_path / "out.svg", columns)
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
    json_lines = ["  " + _json_object(row.to_json_dict().items()) for row in rows]
    out = tmp_path_factory.mktemp("emit")
    emit_csv(rows, out / "rows.csv")
    emit_json(rows, out / "rows.json")
    assert (out / "rows.csv").read_text().split("\n") == csv_lines + [""]
    assert (out / "rows.json").read_text().split("\n") == (
        ["["] + [line + "," for line in json_lines[:-1]] + json_lines[-1:] + ["]", ""]
    )
