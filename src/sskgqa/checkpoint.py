"""The one codec of the three model files, the embedding table, the classifier
and the ranker: a magic line with the format's name and version, one-line
fields (`<name> <value>`), counted string sections (`<name> <count>`, then one
string per line), `floats N` and N float32 little-endian values."""

from __future__ import annotations

import hashlib

import numpy as np


class CheckpointError(ValueError):
    """A model file is truncated, malformed or does not fit its model."""


def _float32(arrays: list[np.ndarray]) -> np.ndarray:
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf
        return np.concatenate([a.astype("<f4").ravel() for a in arrays])


def digest(arrays: list[np.ndarray]) -> str:
    """SHA-256 prefix of the float32 payload `write` makes of `arrays`."""
    return hashlib.sha256(_float32(arrays).tobytes()).hexdigest()[:16]


def write(path: str, magic: str, fields: dict[str, str], sections: dict[str, list[str]], arrays: list[np.ndarray]) -> None:
    """The header, then `arrays`, each raveled, in order, as float32. A value
    that float32 cannot hold, nan, inf or beyond its range, is refused with
    CheckpointError before the file is opened."""
    payload = _float32(arrays)
    if not np.isfinite(payload).all():
        raise CheckpointError(f"{path}: a parameter is nan, inf or beyond float32's range")
    lines = [magic, *(f"{name} {value}" for name, value in fields.items())]
    for name, items in sections.items():
        lines += [f"{name} {len(items)}", *items]
    lines.append(f"floats {payload.size}")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode() + payload.tobytes())


def read(path: str, magic: str, fields: tuple[str, ...], sections: tuple[str, ...], size) -> tuple[dict, np.ndarray]:
    """A `write` file of format `magic` as its header (each field's value and
    each section's strings, by name) and float64 payload. Before the payload
    is read, its `floats` count must be `size(header)`. Another format or
    version, a ValueError of `size` and a nan or inf are a CheckpointError."""
    with open(path, "rb") as f:

        def line(what: str) -> str:
            raw = f.readline()
            if not raw.endswith(b"\n"):
                raise CheckpointError(f"{path}: truncated in the {what}")
            try:
                return raw[:-1].decode()
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: undecodable {what}") from None

        def value(name: str, what: str) -> str:
            key, _, rest = line(f"{name} {what}").partition(" ")
            if key != name or (what == "count" and not rest.isdecimal()):
                raise CheckpointError(f"{path}: expected '{name} <{what}>'")
            return rest

        if (first := line("magic line")) != magic:
            raise CheckpointError(f"{path}: not a {magic} checkpoint, it starts {first[:40]!r}")
        header = {name: value(name, "value") for name in fields}
        header |= {name: [line(f"{name} section") for _ in range(int(value(name, "count")))] for name in sections}
        count = int(value("floats", "count"))
        try:
            need = size(header)
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        if count != need:
            raise CheckpointError(f"{path}: header declares {count} floats, the model needs {need}")
        raw = f.read()
    if len(raw) != 4 * count:
        raise CheckpointError(f"{path}: payload is {len(raw)} bytes, {count} floats need {4 * count}")
    flat = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if not np.isfinite(flat).all():
        raise CheckpointError(f"{path}: payload holds a nan or inf")
    return header, flat


def fill(arrays: list[np.ndarray], flat: np.ndarray) -> None:
    """Copy a `read` payload into `arrays`, in place, in `write`'s order."""
    for a, end in zip(arrays, np.cumsum([a.size for a in arrays])):
        a[...] = flat[end - a.size : end].reshape(a.shape)
