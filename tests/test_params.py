"""Scenario YAML I/O: a round trip through a file, unknown names and
out-of-range planning values."""

import re

import pytest
import yaml

from rlv_landing.params import Scenario, load_scenario, scenario_to_dict


def test_default_scenario_round_trips_through_yaml(tmp_path):
    data = scenario_to_dict(Scenario())
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert scenario_to_dict(load_scenario(path)) == data


@pytest.mark.parametrize("text", ["bogus: {}\n", "planning:\n  bogus: 1\n",
                                  "tracking: {}\n", "sim: {}\n",
                                  "guidance:\n  r_lim: 10\n",
                                  "campaign:\n  jobs: 0\n"])
def test_unknown_names_raise(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    # The last key named is the unknown one.
    name = re.findall(r"(\w+):", text)[-1]
    with pytest.raises(KeyError, match=name):
        load_scenario(path)


@pytest.mark.parametrize("name, value", [("eta_bounds", [120, 1]),
                                         ("tc_window", [15, 0]),
                                         ("max_scp_iter", 0)])
def test_out_of_range_planning_values_raise(tmp_path, name, value):
    # Rejected when loaded, not later as a failed or empty plan.
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({"planning": {name: value}}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=name):
        load_scenario(path)
