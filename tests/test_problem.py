import json
import math

import pytest
from scipy.integrate import quad

from gradflow1d.cli import load_config
from gradflow1d.nonlinearity import Nonlinearity
from gradflow1d.problem import (
    SpecValidationError,
    canonical_text,
    coefficient_norms,
    make_grid,
    spec_from_dict,
)

FISHER = {
    "N": 2,
    "coeffs": ["0", "1"],
    "box_half_length": 5.0,
    "grid_points": 64,
    "boundary": "periodic",
}


def test_fisher_loads():
    spec = spec_from_dict(FISHER)
    assert spec.N == 2
    assert spec.coeff_sources() == ("0.0", "1.0")
    assert spec.boundary == "periodic"
    assert spec.sup_guard == 1e6


def test_degree_below_two_rejected():
    with pytest.raises(SpecValidationError, match="N must be an integer >= 2"):
        spec_from_dict({**FISHER, "N": 1, "coeffs": ["0"]})


def test_wrong_coeff_count_rejected():
    with pytest.raises(SpecValidationError, match="exactly N"):
        spec_from_dict({**FISHER, "coeffs": ["0", "1", "2"]})


@pytest.mark.parametrize("coeffs, index", (([-1, "1"], 0), (["0", 2], 1), ([0, 1], 0),
                                           (["0", None], 1)))
def test_coefficient_must_be_a_string(coeffs, index):
    with pytest.raises(SpecValidationError, match=f"a_{index} must be a string"):
        spec_from_dict({**FISHER, "coeffs": coeffs})


def test_nonfinite_coefficient_sample_rejected():
    # 1/x blows up at the node x=0 of an even periodic grid
    with pytest.raises(SpecValidationError, match="non-finite"):
        spec_from_dict({**FISHER, "coeffs": ["1/x", "1"]})


def test_spatial_dim_pinned():
    with pytest.raises(SpecValidationError, match="spatial_dim"):
        spec_from_dict({**FISHER, "spatial_dim": 2})


def test_bad_boundary_rejected():
    with pytest.raises(SpecValidationError, match="boundary"):
        spec_from_dict({**FISHER, "boundary": "open"})


def test_small_grid_rejected():
    with pytest.raises(SpecValidationError, match="grid_points must be an integer >= 8"):
        spec_from_dict({**FISHER, "grid_points": 4})


@pytest.mark.parametrize("value", ("no", 1, None))
def test_signed_power_must_be_boolean(value):
    # truthiness would turn "no" on
    with pytest.raises(SpecValidationError, match="signed_power"):
        spec_from_dict({**FISHER, "signed_power": value})


@pytest.mark.parametrize("half", (1e-300, 1e-160, 1e-155, 1e300))
def test_grid_spacing_square_must_be_normal(half):
    # h*h underflows to zero, leaves the normal range, or overflows; the
    # spacing is checked before the coefficients are sampled, so the
    # non-finite a_1 is never reached
    d = {**FISHER, "coeffs": ["0", "1/(x-x)"], "box_half_length": half,
         "grid_points": 256}
    with pytest.raises(SpecValidationError, match="spacing"):
        spec_from_dict(d)


def test_unknown_field_rejected():
    with pytest.raises(SpecValidationError, match="unknown"):
        spec_from_dict({**FISHER, "extra": 1})


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(SpecValidationError, match="JSON"):
        load_config(str(path))


def test_canonical_text_round_trip():
    spec = spec_from_dict(FISHER)
    text = canonical_text(spec)
    again = spec_from_dict(json.loads(text))
    assert again == spec
    assert canonical_text(again) == text


def test_canonical_field_names():
    spec = spec_from_dict(FISHER)
    data = json.loads(canonical_text(spec))
    assert set(data) == {
        "N", "coeffs", "box_half_length", "grid_points", "boundary",
        "signed_power", "sup_guard", "spatial_dim",
    }


def test_coefficient_norms_constant():
    spec = spec_from_dict(FISHER)
    norms = coefficient_norms(Nonlinearity(spec, make_grid(spec)))
    assert norms[0] == (0.0, 0.0)
    l1, linf = norms[1]
    assert l1 == pytest.approx(10.0)
    assert linf == 1.0


def test_coefficient_norms_gaussian():
    # oracle: adaptive quadrature of |a_0|
    oracle, err = quad(lambda x: math.exp(-(x**2)), -6.0, 6.0, epsabs=1e-13)
    assert err < 1e-10
    spec = spec_from_dict({
        **FISHER,
        "coeffs": ["exp(-x^2)", "1"],
        "box_half_length": 6.0,
        "grid_points": 512,
    })
    l1, linf = coefficient_norms(Nonlinearity(spec, make_grid(spec)))[0]
    assert l1 == pytest.approx(oracle, abs=1e-6)
    assert l1 == pytest.approx(math.sqrt(math.pi), abs=1e-6)
    assert linf == pytest.approx(1.0)


def test_make_grid_matches_spec():
    spec = spec_from_dict(FISHER)
    g = make_grid(spec)
    assert g.m == 64
    assert g.length == 10.0
    assert g.boundary == "periodic"
