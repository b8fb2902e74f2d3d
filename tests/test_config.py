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


#: (payload, the key path its message starts with, a fragment of the rest). A
#: rule relating several keys, such as the number of links, is ChainSpec's and
#: is reported at the top level, with the keys named in the message.
ERROR_CASES = [
    ([1, 2], "config", "expected a JSON object"),
    (valid_payload(bogus=1), "config", "unknown keys"),
    ({k: v for k, v in valid_payload().items() if k != "links"}, "config.links", "links: missing"),
    (valid_payload(repeaters="3"), "config.repeaters", "repeaters"),
    (valid_payload(repeaters=0), "config", "repeaters"),
    (valid_payload(repeaters=True), "config.repeaters", "repeaters"),
    (valid_payload(honest_left=-1), "config", "honest_left"),
    (valid_payload(honest_left=2, honest_right=2), "config", "exceed 3 stations"),
    (valid_payload(links="nope"), "config.links", "links: expected a list"),
    (valid_payload(links=[{"type": "depolarizing", "q": 0.03}] * 3), "config", "expected 4 links"),
    (valid_payload(links=[42] * 4), "config.links[0]", "links[0]"),
    (valid_payload(links=[{"type": "gaussian"}] * 4), "config.links[0].type", "links[0].type"),
    (valid_payload(links=[{"type": "depolarizing"}] * 4), "config.links[0].q", "links[0].q: missing"),
    (valid_payload(links=[{"type": "depolarizing", "q": 1.5}] * 4), "config.links[0].q", "links[0].q"),
    (valid_payload(links=[{"type": "depolarizing", "q": 0.03, "x": 1}] * 4), "config.links[0]", "unknown keys"),
    (valid_payload(links=[{"type": "explicit", "probs": [1.0, 0.0, 0.0]}] * 4), "config.links[0].probs", "list of 4"),
    (valid_payload(links=[{"type": "explicit", "probs": [0.5, 0.5, 0.5, 0.5]}] * 4), "config.links[0].probs", "sum to 1"),
    # Sums to 1, so BellDiagonal refuses the negative entry after renormalizing.
    (valid_payload(links=[{"type": "explicit", "probs": [1.2, -0.2, 0.0, 0.0]}] * 4), "config.links[0].probs", "must be >= 0"),
    (valid_payload(p_star_override=0.5), "config.p_star_override", "p_star_override"),
    (valid_payload(p_star_override=-0.1), "config.p_star_override", "p_star_override"),
    (valid_payload(p_star_override="low"), "config.p_star_override", "p_star_override"),
    # Integers too large for a float are reported by their size, not as overflow crashes.
    (valid_payload(links=[{"type": "depolarizing", "q": 10**400}] * 4), "config.links[0].q", "links[0].q"),
    (valid_payload(links=[{"type": "explicit", "probs": [10**400, 0, 0, 0]}] * 4), "config.links[0].probs[0]", "probs[0]"),
    (valid_payload(p_star_override=-(10**5000)), "config.p_star_override", "p_star_override"),
    # An explicit link with a key it does not read.
    (valid_payload(links=[{"type": "explicit", "probs": [1.0, 0.0, 0.0, 0.0], "x": 1}] * 4), "config.links[0]", "unknown keys"),
]


@pytest.mark.parametrize(
    "payload,key_path,fragment",
    ERROR_CASES,
    ids=[f"payload{i}-{fragment}" for i, (_, _, fragment) in enumerate(ERROR_CASES)],
)
def test_parse_error_paths(payload, key_path, fragment):
    with pytest.raises(ConfigError) as err:
        parse_chain_config(payload)
    message = str(err.value)
    assert message.startswith(f"{key_path}: ") and fragment in message
    assert len(message.splitlines()) == 1


def load_error(path):
    """The one-line message of the ConfigError that loading ``path`` raises."""
    with pytest.raises(ConfigError) as err:
        load_chain_config(str(path))
    message = str(err.value)
    assert len(message.splitlines()) == 1
    return message


#: Stands for a JSON literal that ``json.dumps`` cannot write, such as ``NaN``.
LITERAL = "LITERAL"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "payload,key_path",
    [
        (valid_payload(links=[{"type": "depolarizing", "q": LITERAL}] * 4), ".links[0].q"),
        # The sum rule refuses the entry: a NaN or infinite entry makes the sum NaN or infinite.
        (valid_payload(links=[{"type": "explicit", "probs": [1.0, LITERAL, 0.0, 0.0]}] * 4), ".links[0].probs"),
        (valid_payload(p_star_override=LITERAL), ".p_star_override"),
    ],
    ids=["q", "probs", "p_star_override"],
)
def test_non_finite_literals_are_refused_at_their_key(tmp_path, payload, key_path, literal):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload).replace(f'"{LITERAL}"', literal))
    assert load_error(path).startswith(f"{path}{key_path}: ")


@pytest.mark.parametrize("key,literal", [("repeaters", "2.0"), ("honest_right", "true")])
def test_counts_must_be_json_integers(tmp_path, key, literal):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(valid_payload(**{key: LITERAL})).replace(f'"{LITERAL}"', literal))
    assert load_error(path) == f"{path}.{key}: expected an integer, got {json.loads(literal)!r}"


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
