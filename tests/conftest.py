from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from relu_prism import Layer, Network, network_to_json

FIXTURES = Path(__file__).parent / "fixtures"


def make_random_network(rng, d, widths, q=1, scale=1.0) -> Network:
    """Random fully-connected net with uniform(-scale, scale) parameters."""
    dims = [d, *widths, q]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(
            Layer(rng.uniform(-scale, scale, (d_out, d_in)), rng.uniform(-scale, scale, d_out))
        )
    return Network(tuple(layers))


def network_text(net: Network) -> str:
    """The text `save_network` writes for `net`."""
    return json.dumps(network_to_json(net), indent=2) + "\n"


def network_sha256(net: Network) -> str:
    return hashlib.sha256(network_text(net).encode()).hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_titanic_csv() -> Path:
    return FIXTURES / "titanic_tiny.csv"


@pytest.fixture(scope="session")
def synthetic_titanic_csv() -> Path:
    return FIXTURES / "titanic_synthetic.csv"
