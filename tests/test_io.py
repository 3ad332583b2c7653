import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqop import io
from freqop.hilbert import StateVector


def test_state_round_trip():
    s = StateVector([0.6, 0.8j])
    back = io.state_from_dict(io.state_to_dict(s))
    npt.assert_allclose(back.amps, s.amps, atol=0)


def test_state_round_trip_through_text():
    s = StateVector([1 / math.sqrt(3)] * 3)
    text = json.dumps(io.state_to_dict(s))
    back = io.state_from_dict(io.strict_loads(text))
    npt.assert_allclose(back.amps, s.amps, atol=0)


def test_matrix_round_trip():
    m = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    back = io.matrix_array_from_dict(io.matrix_to_dict(m))
    npt.assert_allclose(back, m, atol=0)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_strict_loads_rejects_non_finite(literal):
    with pytest.raises(ValueError):
        io.strict_loads(f'{{"dim": 1, "amps": [[{literal}, 0.0]]}}')


def test_state_from_dict_rejects_bad_shapes():
    with pytest.raises(ValueError, match="keys"):
        io.state_from_dict({"dim": 2})
    with pytest.raises(ValueError, match="positive integer"):
        io.state_from_dict({"dim": 0, "amps": []})
    with pytest.raises(ValueError, match="positive integer"):
        io.state_from_dict({"dim": True, "amps": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="pairs"):
        io.state_from_dict({"dim": 2, "amps": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="pair"):
        io.state_from_dict({"dim": 1, "amps": [[1.0]]})
    with pytest.raises(ValueError, match="pair"):
        io.state_from_dict({"dim": 1, "amps": [[1.0, "x"]]})
    with pytest.raises(ValueError, match="non-finite"):
        io.state_from_dict({"dim": 1, "amps": [[math.nan, 0.0]]})


def test_state_from_dict_norm_gate():
    obj = {"dim": 2, "amps": [[1.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(ValueError, match="norm"):
        io.state_from_dict(obj)
    s = io.state_from_dict(obj, normalize=True)
    npt.assert_allclose(np.linalg.norm(s.amps), 1.0, atol=1e-15)


def test_matrix_from_dict_rejects_ragged():
    with pytest.raises(ValueError, match="rows"):
        io.matrix_array_from_dict({"dim": 2, "rows": [[[1.0, 0.0]]]})


def test_load_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "amps": [[0.6, 0.0], [0.0, 0.8]]}))
    s = io.load_state(str(path))
    npt.assert_allclose(s.amps, [0.6, 0.8j], atol=0)


def test_load_hermitian_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(
        json.dumps({"dim": 2, "rows": [[[0.0, 0.0], [1.0, 0.0]],
                                       [[1.0, 0.0], [0.0, 0.0]]]})
    )
    h = io.load_hermitian(str(path))
    npt.assert_allclose(h.entries, [[0.0, 1.0], [1.0, 0.0]], atol=0)


def test_load_unitary_rejects_hermitian_only_matrix(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"dim": 2, "rows": [[[2.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [2.0, 0.0]]]})
    )
    with pytest.raises(ValueError, match="unitary"):
        io.load_unitary(str(path))


def test_strict_loads_rejects_deep_nesting():
    with pytest.raises(ValueError, match="nested"):
        io.strict_loads("[" * 100_000)


def test_state_from_dict_rejects_integer_beyond_float_range():
    with pytest.raises(ValueError, match="float range"):
        io.state_from_dict({"dim": 1, "amps": [[10**400, 0]]})


# Whatever text a state or matrix file holds, the loaders either return or
# raise ValueError, which the CLI reports as a usage error (exit 2).
_json_scalar = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4)
)
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "amps", "rows", "x"]), inner, max_size=3),
    max_leaves=12,
)


_pairs = st.lists(
    st.lists(_json_scalar, min_size=2, max_size=2) | _json_value, max_size=3
)
_state = st.builds(lambda amps: {"dim": len(amps), "amps": amps}, _pairs)
_matrix = st.builds(lambda rows: {"dim": len(rows), "rows": rows},
                    st.lists(_pairs, max_size=3))
_json_text = (
    (_json_value | _state | _matrix).map(json.dumps)
    | st.text(alphabet='[]{}",:-+.eE0123456789 NaInfityrulsd', max_size=40)
    | st.integers(0, 5000).map(lambda depth: "[" * depth + "]" * depth)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_json_text)
def test_fuzz_loaders_raise_only_value_error(text):
    try:
        obj = io.strict_loads(text)
    except ValueError:
        return
    for load in (io.state_from_dict, io.matrix_array_from_dict):
        try:
            load(obj)
        except ValueError:
            pass
