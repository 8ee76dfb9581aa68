import pytest

from occspot.config import ConfigError, parse_config


@pytest.mark.parametrize("n", [0, -2])
def test_parse_config_rejects_n_sequences_below_one(n):
    with pytest.raises(ConfigError, match="n_sequences"):
        parse_config({"n_sequences": n})


def test_parse_config_accepts_one_sequence():
    assert parse_config({"n_sequences": 1}).n_sequences == 1
