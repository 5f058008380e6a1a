import json
from pathlib import Path

import pytest

from conftest import raw_pass
from mrootfinsler.errors import ParseError, RiemannianOrderWarning, ValidationError
from mrootfinsler.fields import pack
from mrootfinsler.specfile import MAX_EXPONENT, load_spec, parse_spec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def doc_text(**overrides):
    doc = {
        "name": "t",
        "dimension": 2,
        "order": 4,
        "tensor": [
            {"indices": [1, 1, 1, 1], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
            {"indices": [2, 2, 2, 2], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
        ],
        "one_form": [{"index": 1, "poly": [{"exponents": [0, 0], "coeff": 1.0}]}],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_fixture_files_round_trip():
    diag = load_spec(FIXTURES / "diag_quartic.json")
    assert (diag.n, diag.m) == (2, 4)
    assert len(diag.field.entries) == 2
    assert diag.oneform is not None
    assert len(diag.sha256) == 64

    bm = load_spec(FIXTURES / "berwald_moore.json")
    value = bm.field.tensor_at([0.0] * 4).eval([1.0] * 4)
    assert value == pytest.approx(1.0, abs=1e-12)

    for name in ("cubic_x.json", "cubic_x_bx.json", "mixed_quartic.json"):
        doc = load_spec(FIXTURES / name)
        assert doc.m >= 3


def test_riemann_fixture_warns():
    with pytest.warns(RiemannianOrderWarning):
        doc = load_spec(FIXTURES / "riemann_identity.json")
    assert doc.m == 2


def test_non_canonical_indices_rejected():
    bad = doc_text(tensor=[
        {"indices": [2, 1, 1, 1], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
    ])
    with pytest.raises(ValidationError, match="canonical"):
        parse_spec(bad)


def test_structural_errors():
    with pytest.raises(ParseError):
        parse_spec("{not json")
    with pytest.raises(ParseError):
        parse_spec(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        parse_spec(json.dumps({"dimension": 2}))
    with pytest.raises(ParseError):
        parse_spec(doc_text(tensor=[{"indices": [1, 1, 1, 1]}]))
    with pytest.raises(ParseError, match="cannot read"):
        load_spec(FIXTURES / "missing.json")


def test_constraint_errors():
    with pytest.raises(ValidationError):
        parse_spec(doc_text(dimension=1))
    with pytest.raises(ValidationError):
        parse_spec(doc_text(order=9))
    with pytest.raises(ValidationError):
        parse_spec(doc_text(order=1))
    dup = json.loads(doc_text())
    dup["tensor"].append(dup["tensor"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        parse_spec(json.dumps(dup))
    with pytest.raises(ValidationError, match="outside"):
        parse_spec(doc_text(tensor=[
            {"indices": [1, 1, 1, 3], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
        ]))
    with pytest.raises(ValidationError, match="exponents"):
        parse_spec(doc_text(tensor=[
            {"indices": [1, 1, 1, 1], "poly": [{"exponents": [0], "coeff": 1.0}]},
        ]))
    bad_of = doc_text(one_form=[
        {"index": 1, "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
        {"index": 1, "poly": [{"exponents": [0, 0], "coeff": 2.0}]},
    ])
    with pytest.raises(ValidationError, match="duplicate"):
        parse_spec(bad_of)


def test_order2_accepted_with_warning():
    with pytest.warns(RiemannianOrderWarning):
        doc = parse_spec(doc_text(
            order=2,
            tensor=[
                {"indices": [1, 1], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
                {"indices": [2, 2], "poly": [{"exponents": [0, 0], "coeff": 1.0}]},
            ],
        ))
    assert doc.m == 2


def test_one_form_optional_and_padded():
    doc = parse_spec(doc_text(one_form=None))
    assert doc.oneform is None
    doc2 = parse_spec(doc_text())
    # missing second component defaults to zero
    assert [p([0.0, 0.0]) for p in doc2.oneform.components] == [1.0, 0.0]


def test_hash_tracks_bytes():
    a = parse_spec(doc_text())
    b = parse_spec(doc_text(name="other"))
    assert a.sha256 != b.sha256
    assert a.sha256 == parse_spec(doc_text()).sha256


def _first_coeff(text):
    # the spec text with the first monomial's coefficient written as `text`
    return doc_text().replace('"coeff": 1.0', f'"coeff": {text}', 1)


def _first_exponent(value):
    # the spec text with the first exponent of the first monomial set to `value`
    return doc_text().replace('"exponents": [0, 0]', f'"exponents": [{value}, 0]', 1)


def _name(text):
    # the spec text with the value of "name" written as `text`
    return doc_text().replace('"name": "t"', f'"name": {text}')


@pytest.mark.parametrize("data, error, match", [
    (_name('"\xe9"').encode("latin-1"), ParseError, "<text>: not UTF-8"),
    (_name("[" * 100_000 + "]" * 100_000), ParseError, "<text>: invalid JSON"),
    (_name("1" * 5000), ParseError, "<text>: invalid JSON"),
    (_first_coeff("1" + "0" * 400), ValidationError, r"tensor\[0\]\.poly\[0\]\.coeff"),
    (_first_coeff("-1" + "0" * 400), ValidationError, r"tensor\[0\]\.poly\[0\]\.coeff"),
    (_first_coeff("NaN"), ValidationError, r"tensor\[0\]\.poly\[0\]\.coeff"),
    (_first_coeff("Infinity"), ValidationError, r"tensor\[0\]\.poly\[0\]\.coeff"),
    (_first_coeff("-Infinity"), ValidationError, r"tensor\[0\]\.poly\[0\]\.coeff"),
    (_first_coeff("1e400"), ValidationError, r"tensor\[0\]\.poly\[0\]\.coeff"),
    (doc_text().replace('"coeff": 1.0}]}]}', '"coeff": NaN}]}]}'), ValidationError,
     r"one_form\[0\]\.poly\[0\]\.coeff"),
    (_first_exponent(MAX_EXPONENT + 1), ValidationError, r"tensor\[0\]\.poly\[0\]\.exponents"),
    (_first_exponent(10 ** 30), ValidationError, r"tensor\[0\]\.poly\[0\]\.exponents"),
], ids=["not-utf8", "nested-too-deep", "int-too-long", "int-beyond-float", "negative-int-beyond-float",
        "nan", "infinity", "minus-infinity", "float-literal-overflow", "one-form-nan",
        "exponent-above-bound", "exponent-beyond-c-long"])
def test_input_edges_refused(data, error, match):
    # each edge is a spec error naming the source or the field, never a
    # Python exception or a non-finite coefficient let through
    with pytest.raises(error, match=match):
        parse_spec(data)


def test_input_edges_name_the_file(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_bytes(_name('"\xe9"').encode("latin-1"))
    with pytest.raises(ParseError, match="bad.json: not UTF-8"):
        load_spec(spec)


def test_largest_float_coefficient_accepted():
    # the range check refuses only what does not convert to a finite float
    doc = parse_spec(_first_coeff(str(2 ** 1023)))
    assert doc.field.entries[(1, 1, 1, 1)].monomials[0][1] == 2.0 ** 1023


def test_exponent_at_bound_accepted():
    # A = x1^64 y1^4 + y2^4: the pass tabulates powers up to the bound
    doc = parse_spec(_first_exponent(MAX_EXPONENT))
    poly = doc.field.entries[(1, 1, 1, 1)]
    x, y = [1.01, 0.3], [0.5, 1.0]
    assert doc.field.tensor_at(x).entries[(1, 1, 1, 1)] == pytest.approx(poly(x), rel=1e-14)
    A = raw_pass(doc.field.terms, pack(x, y, 2))[0].group(0)
    assert A.grad_x[0] == pytest.approx(MAX_EXPONENT * 1.01 ** (MAX_EXPONENT - 1) * 0.5 ** 4, rel=1e-13)
