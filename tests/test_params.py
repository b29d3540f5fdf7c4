"""Scenario YAML I/O: a round trip through a file, unknown names and
out-of-range values."""

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


@pytest.mark.parametrize("name, value", [
    ("eta_bounds", [120, 1]), ("tc_window", [15, 0]), ("max_scp_iter", 0),
    ("mu_T", 0.5), ("L_lim", 0.0), ("t_theta", -1.0), ("N", 1),
    ("T_min", 0.0), ("T_max", 4e5), ("Isp", 0.0), ("s_ref", 0.0),
    ("m0", -1.0), ("l_c", 0.0), ("sd_r0", -1.0), ("sd_v0", -1.0),
    ("coast_step", 0.0), ("W_tr", 0.0), ("eps_scp", -1e-5),
    ("theta_lim_max", 1.6), ("Tdot_lim", 0.0), ("Tdot_lim", -1.0),
    ("g_ref", 0.0), ("m_dry_floor", 40000.0), ("C_D0", -1.0)])
def test_out_of_range_planning_values_raise(tmp_path, name, value):
    # Rejected when loaded, not later as a failed or empty plan, by an error
    # that names the key set: one check of each vehicle, planning and
    # campaign value.
    data = scenario_to_dict(Scenario())
    section = next(key for key, values in data.items()
                   if isinstance(values, dict) and name in values)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({section: {name: value}}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        load_scenario(path)
