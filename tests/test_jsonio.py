import json
import math

import numpy as np
import pytest

from qosc.algcheck import CheckReport
from qosc.hopfstar import involution
from qosc.jsonio import (
    dumps,
    involution_from_json,
    involution_to_json,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    rep_from_json,
    rep_to_json,
    report_to_json,
)
from qosc.qcore import make_params
from qosc.repbuild import MAX_K, auto_params, build_rep, nu0


def _reference_dumps(doc, level=0):
    """The one-call-per-value encoder ``dumps`` must reproduce byte for byte."""
    pad = "  " * (level + 1)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = (f"{pad}{json.dumps(key)}: {_reference_dumps(val, level + 1)}"
                 for key, val in doc.items())
        return "{\n" + ",\n".join(items) + "\n" + "  " * level + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = (pad + _reference_dumps(val, level + 1) for val in doc)
        return "[\n" + ",\n".join(items) + "\n" + "  " * level + "]"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, float):
        if not math.isfinite(doc):
            raise ValueError(f"non-finite value {doc!r} has no JSON encoding")
        text = format(doc, ".17g")
        return "-0.0" if text == "-0" else text
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, str):
        return json.dumps(doc, ensure_ascii=True)
    if doc is None:
        return "null"
    raise TypeError(f"cannot encode {type(doc).__name__}")


def test_matrix_round_trip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    doc = matrix_to_json(m)
    assert doc["rows"] == 3 and doc["cols"] == 4
    assert len(doc["data"]) == 12
    assert np.array_equal(matrix_from_json(doc), m)


def test_matrix_data_is_row_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    doc = matrix_to_json(m)
    assert [entry[0] for entry in doc["data"]] == [1.0, 2.0, 3.0, 4.0]


def test_matrix_length_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


def test_matrix_from_json_rejects_malformed_data():
    for data in ([[0.0, 0.0], [0.0]],  # ragged
                 [[0.0, 0.0, 0.0]] * 2,  # three-element entries
                 [[0.0, 0.0]] * 3,  # length mismatch
                 [0.0, 0.0, 0.0, 0.0],  # flat floats
                 [[None, 0.0]] * 2,
                 [[float("nan"), 0.0]] * 2,
                 [["re", "im"]] * 2):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "data": data})


def test_matrix_round_trip_keeps_signed_zeros_and_empty_shapes():
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                  [complex(5e-324, 0.0), complex(0.0, -1.7976931348623157e308)]])
    doc = matrix_to_json(m)
    assert [math.copysign(1.0, x) for pair in doc["data"][:2] for x in pair] == [-1, 1, 1, -1]
    back = matrix_from_json(doc)
    assert back.tobytes() == m.tobytes() and back.dtype == complex
    assert np.array_equal(matrix_from_json(json.loads(dumps(doc))), m)
    for shape in ((0, 3), (2, 0)):
        empty = matrix_from_json(matrix_to_json(np.zeros(shape, dtype=complex)))
        assert empty.shape == shape and empty.dtype == complex


def test_signed_zeros_survive_the_text_round_trip():
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
                  [complex(1.5, -0.0), complex(-0.0, -2.5), complex(0.0, 0.0)]])
    back = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
    assert np.signbit(back.view(np.float64)).tolist() == np.signbit(m.view(np.float64)).tolist()
    assert back.tobytes() == m.tobytes()


def test_params_round_trip():
    p = make_params("realline", -0.7, 0)
    back = params_from_json(params_to_json(p))
    assert back == p


def test_rep_round_trip_preserves_everything():
    rep = build_rep(make_params("realline", 1.0, 1), 3)
    back = rep_from_json(rep_to_json(rep))
    assert back.params == rep.params
    assert back.k == rep.k and back.normalized == rep.normalized
    assert back.nu0 == rep.nu0 and back.lambdas == rep.lambdas
    for name in ("A", "Abar", "Nmat"):
        assert np.array_equal(getattr(back, name), getattr(rep, name))
        with pytest.raises(ValueError):
            getattr(back, name)[0, 0] = 1.0  # round trip stays frozen


def _disagreeing(case):
    """A rep-json document (k=3) edited so that it disagrees with itself."""
    doc = rep_to_json(build_rep(make_params("realline", 1.0, 1), 3))
    small = rep_to_json(build_rep(make_params("realline", 1.0, 1), 2))
    if case == "k_above_matrices":
        doc["k"] = 4
    elif case == "k_below_matrices":
        doc.update(A=small["A"], Abar=small["Abar"], N=small["N"], lambdas=small["lambdas"])
    elif case == "nonsquare_A":
        doc["A"] = {"rows": 2, "cols": 8, "data": doc["A"]["data"]}
    elif case == "negative_k":
        doc["k"] = -1
    elif case == "float_k":
        doc["k"] = 3.0
    elif case == "bool_k":
        doc.update(k=True, A=small["A"], Abar=small["Abar"], N=small["N"])
    elif case == "lambdas_length":
        doc["lambdas"] = doc["lambdas"][:2]
    elif case == "normalized_not_bool":
        doc["normalized"] = 1
    elif case == "params_epsilon":
        doc["params"]["epsilon"] = 1.3
    elif case == "N_diagonal":
        re, im = doc["N"]["data"][0]
        doc["N"]["data"][0] = [re + 1.0, im]
    elif case == "lambdas_value":
        doc["lambdas"][0] = [0, 123]
    elif case == "lambdas_nan":
        doc["lambdas"][0] = [math.nan, 0]
    elif case == "A_entry":
        doc["A"]["data"][1] = [0, 7]
    elif case == "Abar_entry":
        doc["Abar"]["data"][4] = [7, 0]
    elif case == "N_off_diagonal":
        doc["N"]["data"][1] = [5, 0]
    elif case in ("parity_l", "past_max_k"):
        # consistent with itself at its params, which build_rep refuses:
        # l 2 breaks the real-line sign rule, and k 65 is past MAX_K
        l, k = (2, 3) if case == "parity_l" else (1, MAX_K + 1)
        doc["params"]["l"], doc["k"] = l, k
        base = nu0(params_from_json(doc["params"]), k)
        doc["nu0"] = [base.real, base.imag]
        doc["N"] = matrix_to_json(np.diag(base + np.arange(k + 1)))
        if k != 3:
            doc["A"] = doc["Abar"] = matrix_to_json(np.zeros((k + 1, k + 1), dtype=complex))
            doc["lambdas"] = [[0.0, 0.0]] * k
    return doc


@pytest.mark.parametrize("case", [
    "k_above_matrices", "k_below_matrices", "nonsquare_A", "negative_k", "float_k", "bool_k",
    "lambdas_length", "normalized_not_bool", "params_epsilon", "N_diagonal",
    "lambdas_value", "lambdas_nan", "A_entry", "Abar_entry", "N_off_diagonal",
    "parity_l", "past_max_k",
])
def test_rep_from_json_rejects_a_document_that_disagrees_with_itself(case):
    with pytest.raises(ValueError):
        rep_from_json(_disagreeing(case))


def test_rep_from_json_rejects_k_5_with_4x4_matrices():
    doc = rep_to_json(build_rep(make_params("unimodular", 0.9, 0), 3))
    doc["k"] = 5
    with pytest.raises(ValueError, match="k=5 needs 6x6"):
        rep_from_json(doc)


def test_involution_round_trip():
    inv = involution("imaginary_plus", make_params("realline", 1.0, 1))
    assert involution_from_json(involution_to_json(inv)) == inv


def test_involution_from_json_rejects_nan():
    # Python's json reads the bare NaN token
    doc = json.loads('{"alpha": [NaN, 0], "beta": [NaN, 0], "eta": [0, 0], '
                     '"flavor": "standard", "label": "x"}')
    with pytest.raises(ValueError, match="involution data must be finite"):
        involution_from_json(doc)


def test_report_serialization_keys():
    r = CheckReport(name="x", residual=1e-16, tolerance=1e-10, passed=True)
    doc = report_to_json(r)
    assert list(doc) == ["name", "residual", "tolerance", "pass"]
    doc = report_to_json(r, expected="fail")
    assert doc["expected"] == "fail"


def test_dumps_is_valid_json_and_lossless():
    doc = {"x": 0.1, "y": [1.0 / 3.0, -2.5e-17], "n": 7, "flag": True, "none": None, "s": "t"}
    text = dumps(doc)
    back = json.loads(text)
    assert back["x"] == 0.1 and back["y"] == [1.0 / 3.0, -2.5e-17]
    assert back["n"] == 7 and back["flag"] is True and back["none"] is None


def test_dumps_writes_seventeen_significant_digits():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(math.pi) == "3.1415926535897931"
    assert dumps(1.5) == "1.5"
    assert dumps(-0.0) == "-0.0"
    assert dumps(0.0) == "0"


def test_dumps_key_order_is_construction_order():
    assert dumps({"b": 1, "a": 2}) == '{\n  "b": 1,\n  "a": 2\n}'
    assert dumps({}) == "{}"
    assert dumps([]) == "[]"


@pytest.mark.parametrize("mode,epsilons", [("unimodular", (0.1, 0.37, 1.1)),
                                           ("realline", (0.1, 0.37, -1.1))])
def test_dumps_matches_reference_on_reps(mode, epsilons):
    for eps in epsilons:
        for k in (0, 1, 2, 17, 64):
            doc = rep_to_json(build_rep(auto_params(mode, eps), k))
            assert dumps(doc) == _reference_dumps(doc)


def test_dumps_matches_reference_on_edge_values():
    tiny, huge = 5e-324, 1.7976931348623157e308
    docs = [
        {"zeros": [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]]},
        {"extremes": [[tiny, -tiny], [huge, -huge], [tiny, -tiny], [1.0 / 3.0, 0.1]]},
        {"pairs": [[1.5, 2.5]], "after": [[1.0, 2.0, 3.0]], "mixed": [[1.0, 2.0], [1, 2.0]]},
        {"tuples": ((0.5, -0.5), (0.5, -0.5)), "mixed_kind": [(1.0, 2.0), [1.0, 2.0]]},
        {"empty": [], "empty_pair_item": [[]], "triple": [1.0, 2.0, 3.0], "pair": [1.0, 2.0]},
        {"bools": [[True, False]], "nested": [[[1.0, 2.0]], [[-0.0, 0.0]]], "none": [[None, 1.0]]},
        {"pair_then_other": [[1.0, 2.0], "s"], "other_then_pair": [{}, [1.0, 2.0]]},
        [[-0.0, 0.0]],
        [],
    ]
    for doc in docs:
        assert dumps(doc) == _reference_dumps(doc)


def test_dumps_pair_path_rejects_non_finite_and_unknown_types():
    for bad in ([[0.0, 0.0], [float("nan"), 0.0]], [[0.0, float("-inf")]]):
        with pytest.raises(ValueError):
            dumps({"data": bad})
    with pytest.raises(TypeError):
        dumps([[0.0, 0.0], [np.eye(2), 0.0]])


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"bad": float("nan")})
    with pytest.raises(ValueError):
        dumps(float("inf"))


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"m": np.eye(2)})


def test_rep_to_json_keeps_plain_pair_lists():
    doc = rep_to_json(build_rep(make_params("unimodular", 0.9, 0), 3))
    for name in ("A", "Abar", "N"):
        data = doc[name]["data"]
        assert type(data) is list and len(data) == 16
        assert {type(pair) for pair in data} == {list}
        assert {type(x) for pair in data for x in pair} == {float}


def test_dumps_of_a_complex_array_equals_its_pair_list():
    tiny, huge = 5e-324, 1.7976931348623157e308
    values = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j,
              complex(tiny, -tiny), complex(huge, -huge), complex(-huge, 1.0 / 3.0), 0j]
    for array in (np.array(values), np.array(values)[::-2], np.zeros(0, dtype=complex)):
        pairs = [[z.real, z.imag] for z in array.tolist()]
        assert dumps(array) == dumps(pairs) == _reference_dumps(pairs)
        assert dumps({"m": {"data": array}}) == _reference_dumps({"m": {"data": pairs}})
    assert dumps(np.zeros(0, dtype=complex)) == "[]"


def test_dumps_of_a_complex_array_rejects_non_finite():
    for bad in (complex(math.nan, 0.0), complex(0.0, -math.inf), complex(math.inf, math.nan)):
        with pytest.raises(ValueError, match="non-finite value"):
            dumps({"data": np.array([0j, bad, 1j])})


def test_dumps_rejects_arrays_other_than_one_dimensional_complex():
    for array in (np.eye(2), np.zeros(3, dtype=np.complex64), np.zeros((2, 2), dtype=complex),
                  np.zeros(0)):
        with pytest.raises(TypeError):
            dumps({"data": array})
