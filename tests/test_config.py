"""Configuration schema: accepted shapes and the error paths reported."""

import json

import pytest

from chainrate.config import (
    ChainConfig,
    ConfigError,
    default_chain_config,
    load_chain_config,
    parse_chain_config,
)
from chainrate.noise import depolarizing_dist, uniform_chain


def valid_payload(**overrides):
    payload = {
        "repeaters": 3,
        "honest_left": 1,
        "honest_right": 1,
        "links": [{"type": "depolarizing", "q": 0.03}] * 4,
    }
    payload.update(overrides)
    return payload


def test_default_config():
    config = default_chain_config()
    assert config.spec == uniform_chain(5, 0.03, 2, 2)
    assert config.p_star_override is None


def test_parse_valid_mixed_links():
    payload = valid_payload(
        links=[
            {"type": "depolarizing", "q": 0.02},
            {"type": "explicit", "probs": [0.94, 0.02, 0.02, 0.02]},
            {"type": "depolarizing", "q": 0.0},
            {"type": "explicit", "probs": [1.0, 0.0, 0.0, 0.0]},
        ],
        p_star_override=0.01,
    )
    config = parse_chain_config(payload)
    assert isinstance(config, ChainConfig)
    assert config.spec.links[0] == depolarizing_dist(0.02)
    assert config.spec.links[1].probs == (0.94, 0.02, 0.02, 0.02)
    assert config.p_star_override == 0.01


def test_parse_renormalizes_probs_within_tolerance():
    probs = [0.94, 0.02, 0.02, 0.02 + 5e-10]
    payload = valid_payload(links=[{"type": "explicit", "probs": probs}] * 4)
    config = parse_chain_config(payload)
    assert abs(sum(config.spec.links[0].probs) - 1.0) < 1e-15


def test_parse_null_override_is_absent():
    config = parse_chain_config(valid_payload(p_star_override=None))
    assert config.p_star_override is None


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ([1, 2], "expected a JSON object"),
        (valid_payload(bogus=1), "unknown keys"),
        ({k: v for k, v in valid_payload().items() if k != "links"}, "links: missing"),
        (valid_payload(repeaters="3"), "repeaters"),
        (valid_payload(repeaters=0), "repeaters"),
        (valid_payload(repeaters=True), "repeaters"),
        (valid_payload(honest_left=-1), "honest_left"),
        (valid_payload(honest_left=2, honest_right=2), "exceed 3 stations"),
        (valid_payload(links="nope"), "links: expected a list"),
        (valid_payload(links=[{"type": "depolarizing", "q": 0.03}] * 3), "expected 4 entries"),
        (valid_payload(links=[42] * 4), "links[0]"),
        (valid_payload(links=[{"type": "gaussian"}] * 4), "links[0].type"),
        (valid_payload(links=[{"type": "depolarizing"}] * 4), "links[0].q: missing"),
        (valid_payload(links=[{"type": "depolarizing", "q": 1.5}] * 4), "links[0].q"),
        (valid_payload(links=[{"type": "depolarizing", "q": 0.03, "x": 1}] * 4), "unknown keys"),
        (valid_payload(links=[{"type": "explicit", "probs": [1.0, 0.0, 0.0]}] * 4), "list of 4"),
        (valid_payload(links=[{"type": "explicit", "probs": [0.5, 0.5, 0.5, 0.5]}] * 4), "sum to 1"),
        (valid_payload(links=[{"type": "explicit", "probs": [1.2, -0.2, 0.0, 0.0]}] * 4), "probs[0]"),
        (valid_payload(p_star_override=0.5), "p_star_override"),
        (valid_payload(p_star_override=-0.1), "p_star_override"),
        (valid_payload(p_star_override="low"), "p_star_override"),
        # Integers too large for a float are range errors, not overflow crashes.
        (valid_payload(links=[{"type": "depolarizing", "q": 10**400}] * 4), "links[0].q"),
        (valid_payload(links=[{"type": "explicit", "probs": [10**400, 0, 0, 0]}] * 4), "probs[0]"),
        (valid_payload(p_star_override=-(10**5000)), "p_star_override"),
        # An explicit link with a key it does not read.
        (valid_payload(links=[{"type": "explicit", "probs": [1.0, 0.0, 0.0, 0.0], "x": 1}] * 4), "unknown keys"),
    ],
)
def test_parse_error_paths(payload, fragment):
    with pytest.raises(ConfigError) as err:
        parse_chain_config(payload)
    assert fragment in str(err.value)


def test_error_messages_carry_the_source_name():
    with pytest.raises(ConfigError) as err:
        parse_chain_config(valid_payload(bogus=1), where="settings.json")
    assert str(err.value).startswith("settings.json")


def test_load_valid_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(valid_payload()))
    config = load_chain_config(str(path))
    assert config.spec.repeaters == 3


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_chain_config(str(tmp_path / "absent.json"))


def test_load_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"repeaters": }')
    with pytest.raises(ConfigError) as err:
        load_chain_config(str(path))
    assert "invalid JSON" in str(err.value)
    assert ":1:" in str(err.value)


def test_load_integer_beyond_the_digit_limit_is_a_config_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(valid_payload()).replace("0.03", "1" * 5000, 1))
    with pytest.raises(ConfigError) as err:
        load_chain_config(str(path))
    assert str(err.value).startswith(f"{path}: invalid JSON: ")
    assert len(str(err.value).splitlines()) == 1


def test_load_deeply_nested_json_is_a_config_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError) as err:
        load_chain_config(str(path))
    assert str(err.value).startswith(str(path))
    assert len(str(err.value).splitlines()) == 1
