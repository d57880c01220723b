import json
import re
from pathlib import Path

import numpy as np
import pytest

import twodiscord as td
from twodiscord import StateFormatError
from twodiscord.serialize import load_state, save_state, state_from_dict, state_to_dict


def test_round_trip(tmp_path):
    st = td.random_state(2, 3, rank=4, seed=0)
    path = tmp_path / "state.json"
    save_state(path, st)
    back = load_state(path)
    assert (back.dim_a, back.dim_b) == (2, 3)
    np.testing.assert_allclose(back.entries, st.entries, atol=1e-15)


def test_dict_round_trip():
    st = td.bell_state()
    np.testing.assert_allclose(state_from_dict(state_to_dict(st)).entries, st.entries)


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_state(path)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"dim_a": 2, "dim_b": 2},
        {"dim_a": 0, "dim_b": 2, "matrix": []},
        {"dim_a": True, "dim_b": 2, "matrix": []},
        {"dim_a": 2, "dim_b": 2, "matrix": [[[1, 0]] * 4] * 3},
        {"dim_a": 2, "dim_b": 2, "matrix": [[[1, 0]] * 3] * 4},
        {"dim_a": 2, "dim_b": 2, "matrix": [[[1, 0, 0]] * 4] * 4},
        {"dim_a": 2, "dim_b": 2, "matrix": [[["x", 0]] * 4] * 4},
        {"dim_a": 2, "dim_b": 2, "matrix": [[[True, 0]] * 4] * 4},
    ],
)
def test_rejected_documents(doc):
    with pytest.raises(StateFormatError):
        state_from_dict(doc)


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "readme.json"
    path.write_text(block)
    st = load_state(path)
    np.testing.assert_allclose(st.entries, td.bell_state().entries, atol=1e-15)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_constants_rejected(tmp_path, bad):
    doc = json.dumps(state_to_dict(td.bell_state())).replace("0.0", bad, 1)
    path = tmp_path / "nonfinite.json"
    path.write_text(doc)
    with pytest.raises(StateFormatError):
        load_state(path)


def test_invalid_state_still_validated(tmp_path):
    # well-formed file whose matrix is not a density matrix
    doc = state_to_dict(td.bell_state())
    doc["matrix"][0][0] = [2.0, 0.0]
    path = tmp_path / "notdm.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(td.DiscordError):
        load_state(path)
