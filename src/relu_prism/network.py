"""Fully-connected feedforward ReLU network with a logit output.

A network is an ordered stack of affine layers. Every layer except the last
is followed by a ReLU; the last layer is plain affine, and a class label is
1 exactly when its logit is strictly positive. A forward pass records which
hidden units fired (preactivation strictly greater than zero), and that
firing record is the activation pattern the rest of the package is built on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, SchemaError, ShapeError

__all__ = [
    "Layer",
    "Network",
    "ActivationPattern",
    "ForwardTrace",
    "forward_trace",
    "forward_batch",
    "predict_batch",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
    "parse_network_json",
]


def _leaf_types(values) -> set:
    """The types of what the nested lists ``values`` hold below every list."""
    types, level = set(), [values]
    while level:
        types.update(map(type, level))
        level = [v for item in level if type(item) is list for v in item]
    types.discard(list)
    return types


def _numeric_array(values) -> np.ndarray:
    """The JSON ``values`` as float64; a string or a boolean among them is refused.

    numpy would parse a string such as "0.25" and take true as 1, even beside
    numbers. A null still becomes NaN, which the test for finite values refuses.
    """
    arr = np.array(values, dtype=np.float64)
    types = _leaf_types(values)
    if str in types:
        raise ValueError("it holds a string")
    if bool in types:
        raise ValueError("it holds true or false")
    return arr


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Layer:
    """One affine layer: weight of shape (d_out, d_in) and bias of shape (d_out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.array(self.weight, dtype=np.float64)
        b = np.array(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise ShapeError(f"layer weight must be 2-D, got ndim={w.ndim}")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ShapeError(
                f"layer bias shape {b.shape} does not match weight rows {w.shape[0]}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise InputError("layer parameters must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True, eq=False)
class Network:
    """An immutable stack of affine layers, ReLU between all but the last.

    All layers but the last are the hidden ReLU layers, and the last
    produces the logit. The type admits any output width, although
    prediction and clustering require a scalar output.
    """

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(
            layer if isinstance(layer, Layer) else Layer(*layer) for layer in self.layers
        )
        if not layers:
            raise ShapeError("a network needs at least one layer")
        for i in range(1, len(layers)):
            if layers[i].d_in != layers[i - 1].d_out:
                raise ShapeError(
                    f"layer {i + 1} expects {layers[i].d_in} inputs but layer {i} "
                    f"produces {layers[i - 1].d_out}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].d_out

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.d_out for layer in self.layers[:-1])


@dataclass(frozen=True, init=False, slots=True)
class ActivationPattern:
    """Per-hidden-layer firing bits; equality of patterns is the clustering relation.

    A unit counts as active only when its preactivation is strictly positive,
    so an input sitting exactly on a ReLU boundary is classified as inactive.
    A pattern is stored as its flat ``bitstring`` ("1" for active, hidden
    layers side by side) and the hidden ``widths``; ``bits`` is derived on
    demand, so tens of thousands of patterns hold one string each.
    """

    bitstring: str
    widths: tuple[int, ...]

    def __init__(self, bits: Iterable[Iterable[bool]]):
        rows = [[bool(b) for b in row] for row in bits]
        object.__setattr__(
            self, "bitstring", "".join("1" if b else "0" for row in rows for b in row)
        )
        object.__setattr__(self, "widths", tuple(len(row) for row in rows))

    @classmethod
    def _from_bitstring(cls, bitstring: str, widths: tuple[int, ...]) -> "ActivationPattern":
        """Wrap a 0/1 string whose length is ``sum(widths)``, unchecked."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "bitstring", bitstring)
        object.__setattr__(pattern, "widths", widths)
        return pattern

    @classmethod
    def from_flat(cls, flat: Iterable[bool], widths: Sequence[int]) -> "ActivationPattern":
        bitstring = "".join("1" if b else "0" for b in flat)
        widths = tuple(widths)
        if len(bitstring) != sum(widths):
            raise ShapeError(
                f"{len(bitstring)} bits cannot fill hidden widths {widths}"
            )
        return cls._from_bitstring(bitstring, widths)

    @property
    def bits(self) -> tuple[tuple[bool, ...], ...]:
        rows, at = [], 0
        for w in self.widths:
            rows.append(tuple(c == "1" for c in self.bitstring[at : at + w]))
            at += w
        return tuple(rows)

    def matches(self, net: Network) -> bool:
        return self.widths == net.hidden_widths


def masks_to_text(masks: np.ndarray) -> str:
    """The ``bitstring`` of each row of a (k, total_bits) 0/1 matrix, side by side."""
    return np.where(masks, ord("1"), ord("0")).astype(np.uint8).tobytes().decode("ascii")


def split_bitstrings(text: str, width: int, k: int) -> list[str]:
    """The k bitstrings of ``width`` characters each that ``text`` holds side by side."""
    return [text[g * width : (g + 1) * width] for g in range(k)]


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Everything recorded by one forward pass.

    ``preactivations`` holds one vector per layer (before the nonlinearity);
    ``logit`` is the raw output of the final affine layer. ``pattern``
    collects the strict-positivity bits of the hidden preactivations.
    """

    preactivations: tuple[np.ndarray, ...]
    logit: np.ndarray
    pattern: ActivationPattern


def _preactivations(layers, X: np.ndarray):
    """The one layer loop: yield each layer's preactivation matrix for rows X.

    ``layers`` gives (weight, bias) pairs: (out, in) and (out,), or a stack
    of networks with weights (S, out, in), biases (S, 1, out) and rows
    (S, n, in). A hidden matrix is rectified in place when the loop resumes,
    so the caller reads preactivations and a matrix it keeps ends as
    activations; the output is never rectified.
    """
    a = X
    for W, b in layers:
        if a is not X:
            np.maximum(a, 0.0, out=a)
        z = a @ W.mT
        z += b
        yield z
        a = z


def _input_vector(net: Network, u) -> np.ndarray:
    """``u`` as one float64 input; the wrong shape or a non-finite entry is refused."""
    x = np.asarray(u, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ShapeError(f"input shape {x.shape} does not match input_dim={net.input_dim}")
    if not np.all(np.isfinite(x)):
        raise InputError("input vector must be finite")
    return x


def forward_trace(net: Network, u) -> ForwardTrace:
    """Run one input through the network, recording preactivations and pattern.

    This is the one-row case of ``forward_batch``: the same layer loop on a
    1-row matrix.
    """
    x = _input_vector(net, u)
    layers = ((layer.weight, layer.bias) for layer in net.layers)
    pres = tuple(_frozen_array(z[0]) for z in _preactivations(layers, x[None, :]))
    return ForwardTrace(
        preactivations=pres,
        logit=pres[-1],
        pattern=ActivationPattern(tuple(tuple(z > 0.0) for z in pres[:-1])),
    )


def forward_batch(net: Network, inputs) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vectorized forward pass over a matrix of inputs.

    Returns the logits with shape (n, output_dim) and, per hidden layer, the
    boolean activity matrix of shape (n, width) under the strict-positivity
    rule. Row i agrees with ``forward_trace`` on row i up to rounding only:
    BLAS may sum an n-row product in another order than a one-row product,
    so logits can differ in the last bits, and a preactivation within
    rounding of zero may land on the other side of the kink. Every path
    applies the same strict ``> 0`` rule to the value it computed.
    """
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(
            f"input matrix shape {X.shape} does not match input_dim={net.input_dim}"
        )
    if not np.all(np.isfinite(X)):
        raise InputError("input matrix must be finite")
    pres = _preactivations(((layer.weight, layer.bias) for layer in net.layers), X)
    bits = [next(pres) > 0.0 for _ in net.layers[:-1]]
    return next(pres), bits


# Rows whose sorted keys ``_group_rows`` gathers at a time.
_GROUP_BLOCK = 4096


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of the C-contiguous (n, w) uint8 matrix ``keys`` by their bytes.

    Returns the row order and the start of each group in it: group g owns
    ``order[starts[g] : starts[g + 1]]``, the last group running to n. Each
    key, zero-padded to a whole number of 8-byte words (at least one), is
    read as big-endian unsigned words. Words compare as their bytes do, so
    one stable sort of the words, first word first, orders the groups by
    their bytes, as ``np.unique(..., axis=0)`` orders a uint8 matrix, and
    keeps each group's rows in increasing order. Neighbouring keys in that
    order are compared a block of rows at a time, so no sorted copy of the
    keys is made.
    """
    n, width = keys.shape
    wide = 8 * max(1, -(-width // 8))
    if wide != width:
        # Every key gets the same zero bytes, so the order is kept.
        padded = np.zeros((n, wide), dtype=np.uint8)
        padded[:, :width] = keys
        keys = padded
    words = keys.view(">u8")
    # lexsort is stable, and its last key is the first word.
    order = np.lexsort(words.T[::-1])
    first = np.ones(n, dtype=bool)
    for start in range(1, n, _GROUP_BLOCK):
        stop = min(start + _GROUP_BLOCK, n)
        ordered = words[order[start - 1 : stop]]
        first[start:stop] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(first)


def predict_batch(net: Network, inputs) -> np.ndarray:
    """Class labels of a scalar-output network for rows of an input matrix.

    A row's label is 1 iff its logit is strictly positive, so a logit of
    exactly 0 maps to class 0.
    """
    if net.output_dim != 1:
        raise ShapeError(f"predict_batch requires output_dim=1, got {net.output_dim}")
    logits, _ = forward_batch(net, inputs)
    return (logits[:, 0] > 0.0).astype(np.int64)


def network_to_json(net: Network) -> dict:
    """Serializable document: {"layers": [{"w": [[...]], "b": [...]}, ...]}."""
    return {
        "layers": [
            {"w": layer.weight.tolist(), "b": layer.bias.tolist()} for layer in net.layers
        ]
    }


def network_from_json(doc: dict) -> Network:
    """Rebuild a network from its JSON document, revalidating every invariant."""
    if not isinstance(doc, dict) or "layers" not in doc:
        raise SchemaError('network document must be an object with a "layers" list')
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise SchemaError('"layers" must be a non-empty list')
    layers = []
    for i, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "w" not in entry or "b" not in entry:
            raise SchemaError(f'layer {i + 1} must be an object with "w" and "b"')
        try:
            w, b = _numeric_array(entry["w"]), _numeric_array(entry["b"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"layer {i + 1} is not numeric: {exc}") from exc
        try:
            layers.append(Layer(w, b))
        except InputError as exc:
            raise SchemaError(f"layer {i + 1}: {exc}") from exc
    try:
        return Network(tuple(layers))
    except InputError as exc:
        raise SchemaError(str(exc)) from exc


def save_network(net: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_json(net), indent=2) + "\n")


def load_network(path) -> Network:
    return parse_network_json(Path(path).read_bytes(), path)


def parse_network_json(raw: bytes, path) -> Network:
    """The network in the JSON bytes ``raw``; ``path`` names them in messages."""
    try:
        doc = json.loads(raw.decode())
    except ValueError as exc:  # bad UTF-8, bad JSON or an integer past Python's digit limit
        raise SchemaError(f"invalid network JSON in {path}: {exc}") from exc
    return network_from_json(doc)
