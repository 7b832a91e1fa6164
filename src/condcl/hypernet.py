"""Condition operators and the networks that produce them.

A condition embedding h_c becomes a linear operator that projects sentence
embeddings into a condition-specific subspace. Every composition mode is
such an operator: "full" generates a dense nh x nh matrix, "lowrank" a
factored W1 @ W2.T pair of rank nk that is never multiplied out, "hadamard"
is diag(h_c), and "concat" is a linear merge Wcat @ [h_c; h_s]. There is one
path from a condition to a conditioned embedding: generate the operator once
per condition (``make_operator``), then project each sentence through it
(``apply_operator``). Both work on ndarrays and autodiff Tensors alike, so
training and inference share the formulas; ``generate_condition_matrix``
and ``project`` are their validated ndarray entry points.

Checkpoint format: 8-byte magic ``HYPERCL1``, an 8-byte little-endian
unsigned header length, a UTF-8 JSON header {mode, nh, nk, dropout_p,
tensors: [{name, shape, offset}]}, then little-endian float32 payloads at
the given byte offsets, in manifest order.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, FormatError
from .linalg import as_vector

__all__ = [
    "MODES",
    "HyperNetParams",
    "ConditionOperator",
    "default_nk",
    "diagonal_operator",
    "init_params",
    "make_operator",
    "apply_operator",
    "generate_condition_matrix",
    "project",
    "param_count",
    "operator_frobenius_normalized",
    "operator_payload_bytes",
    "densify",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

MODES = ("full", "lowrank", "hadamard", "concat")
CHECKPOINT_MAGIC = b"HYPERCL1"

INIT_WEIGHT_STD = 0.02
DEFAULT_RANK_DIVISOR = 12
DEFAULT_DROPOUT_P = 0.1


def _tensor_shapes(mode: str, nh: int, nk: int | None) -> dict[str, tuple[int, ...]]:
    """Learnable tensor shapes of a mode, in canonical (checkpoint manifest) order."""
    if mode == "full":
        return {"U": (nh * nh, nh), "U_bias": (nh * nh,)}
    if mode == "lowrank":
        return {
            "U1": (nh * nk, nh),
            "U1_bias": (nh * nk,),
            "U2": (nh * nk, nh),
            "U2_bias": (nh * nk,),
        }
    if mode == "concat":
        return {"Wcat": (nh, 2 * nh)}
    return {}


@dataclass
class HyperNetParams:
    """Learnable parameters for one composition mode.

    Fields for inactive modes are None. nk is meaningful only for lowrank;
    dropout_p only for concat.
    """

    mode: str
    nh: int
    nk: int | None = None
    U: np.ndarray | None = None
    U_bias: np.ndarray | None = None
    U1: np.ndarray | None = None
    U1_bias: np.ndarray | None = None
    U2: np.ndarray | None = None
    U2_bias: np.ndarray | None = None
    Wcat: np.ndarray | None = None
    dropout_p: float = 0.0

    def tensors(self) -> dict[str, np.ndarray]:
        """Learnable tensors in canonical (checkpoint manifest) order."""
        return {name: getattr(self, name) for name in _tensor_shapes(self.mode, self.nh, self.nk)}


@dataclass
class ConditionOperator:
    """The linear map one condition applies to sentence embeddings.

    One of four forms; only that form's fields are set:

      - ``dense``: W (nh x nh), the output is W @ h_s;
      - ``factored``: W1, W2 (nh x nk each), the output is W1 @ (W2.T @ h_s);
      - ``diagonal``: d (nh,), the output is d * h_s;
      - ``concat``: Wcat (nh x 2nh) and the condition embedding h_c, the
        output is Wcat @ [h_c; h_s] (times a dropout mask when training).

    Fields hold ndarrays at inference and autodiff Tensors inside the loss
    closures; ``apply_operator`` serves both.
    """

    form: str
    W: np.ndarray | None = None
    W1: np.ndarray | None = None
    W2: np.ndarray | None = None
    d: np.ndarray | None = None
    Wcat: np.ndarray | None = None
    h_c: np.ndarray | None = None


def diagonal_operator(h_c) -> ConditionOperator:
    """Operator equivalent to the elementwise product with h_c."""
    return ConditionOperator(form="diagonal", d=as_vector(h_c, "h_c"))


def default_nk(nh: int) -> int:
    """Rank used for lowrank operators when none is given."""
    return max(1, nh // DEFAULT_RANK_DIVISOR)


def init_params(
    mode: str,
    nh: int,
    nk: int | None = None,
    seed: int = 0,
    dropout_p: float = DEFAULT_DROPOUT_P,
    zero_bias: bool = False,
) -> HyperNetParams:
    """Seeded parameter initialization.

    Full mode starts at (approximately) the identity operator: weights are
    small Gaussians and the bias is the flattened identity, so an untrained
    model roughly preserves sentence embeddings. Lowrank cannot represent
    the identity for nk < nh, so it starts from small random values. Set
    zero_bias=True for the no-bias generator variant.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if nh <= 0:
        raise ValueError("nh must be positive")
    rng = np.random.default_rng(seed)
    if mode == "full":
        U = rng.normal(0.0, INIT_WEIGHT_STD, size=(nh * nh, nh))
        bias = np.zeros(nh * nh) if zero_bias else np.eye(nh).reshape(nh * nh)
        return HyperNetParams(mode=mode, nh=nh, U=U, U_bias=bias)
    if mode == "lowrank":
        nk = default_nk(nh) if nk is None else int(nk)
        if nk > nh or nk < 1:
            raise ValueError(f"lowrank requires 1 <= nk <= nh, got nk={nk}, nh={nh}")
        bias_std = INIT_WEIGHT_STD / np.sqrt(nk)
        U1 = rng.normal(0.0, INIT_WEIGHT_STD, size=(nh * nk, nh))
        U1_bias = np.zeros(nh * nk) if zero_bias else rng.normal(0.0, bias_std, size=nh * nk)
        U2 = rng.normal(0.0, INIT_WEIGHT_STD, size=(nh * nk, nh))
        U2_bias = np.zeros(nh * nk) if zero_bias else rng.normal(0.0, bias_std, size=nh * nk)
        return HyperNetParams(
            mode=mode, nh=nh, nk=nk, U1=U1, U1_bias=U1_bias, U2=U2, U2_bias=U2_bias
        )
    if mode == "concat":
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        Wcat = rng.normal(0.0, INIT_WEIGHT_STD, size=(nh, 2 * nh))
        return HyperNetParams(mode=mode, nh=nh, Wcat=Wcat, dropout_p=float(dropout_p))
    return HyperNetParams(mode="hadamard", nh=nh)


# make_operator and apply_operator keep the parameters on the left of each
# product, which is what lets autodiff Tensors stand in for ndarrays.


def make_operator(mode: str, tensors, h_c, nh: int, nk: int | None = None) -> ConditionOperator:
    """The operator of condition embedding h_c under ``mode``.

    ``tensors`` maps the mode's learnable tensor names to ndarrays or
    Tensors; names it does not need are ignored. No input is validated.
    """
    if mode == "full":
        W = (tensors["U"] @ h_c + tensors["U_bias"]).reshape((nh, nh))
        return ConditionOperator(form="dense", W=W)
    if mode == "lowrank":
        return ConditionOperator(
            form="factored",
            W1=(tensors["U1"] @ h_c + tensors["U1_bias"]).reshape((nh, nk)),
            W2=(tensors["U2"] @ h_c + tensors["U2_bias"]).reshape((nh, nk)),
        )
    if mode == "hadamard":
        return ConditionOperator(form="diagonal", d=h_c)
    if mode == "concat":
        return ConditionOperator(form="concat", Wcat=tensors["Wcat"], h_c=h_c)
    raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def apply_operator(op: ConditionOperator, h_s, mask=None):
    """Project h_s through op; ``mask`` scales the concat input (dropout)."""
    if op.form == "dense":
        return op.W @ h_s
    if op.form == "factored":
        return op.W1 @ (op.W2.T @ h_s)
    if op.form == "diagonal":
        return op.d * h_s
    if op.form == "concat":
        x = np.concatenate([op.h_c, h_s])
        if mask is not None:
            x = x * mask
        return op.Wcat @ x
    raise ValueError(f"unknown operator form {op.form!r}")


def generate_condition_matrix(params: HyperNetParams, h_c) -> ConditionOperator:
    """Generate the conditioning operator for one condition embedding."""
    h_c = as_vector(h_c, "h_c")
    if h_c.shape[0] != params.nh:
        raise DimensionMismatchError(
            f"h_c has dim {h_c.shape[0]}, generator expects {params.nh}"
        )
    return make_operator(params.mode, params.tensors(), h_c, params.nh, params.nk)


def project(op: ConditionOperator, h_s) -> np.ndarray:
    """Apply a condition operator to a sentence embedding."""
    h_s = as_vector(h_s, "h_s")
    n = h_s.shape[0]
    if op.form == "dense":
        fits = op.W.shape[1] == n
    elif op.form == "factored":
        fits = op.W1.shape[0] == n and op.W2.shape[0] == n
    elif op.form == "diagonal":
        fits = op.d.shape[0] == n
    elif op.form == "concat":
        fits = op.h_c.shape[0] == n and op.Wcat.shape[1] == 2 * n
    else:
        raise ValueError(f"unknown operator form {op.form!r}")
    if not fits:
        raise DimensionMismatchError(f"{op.form} operator/vector dim mismatch")
    return apply_operator(op, h_s)


def dropout_mask(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Inverted-dropout scaling mask: entries are 0 or 1/(1-p)."""
    if p == 0.0:
        return np.ones(size)
    keep = rng.random(size) >= p
    return keep.astype(np.float64) / (1.0 - p)


def param_count(params: HyperNetParams) -> int:
    """Exact number of learnable scalars."""
    return sum(t.size for t in params.tensors().values())


def densify(op: ConditionOperator) -> np.ndarray:
    """Materialize the operator as a dense matrix (diagnostics/tests only)."""
    if op.form == "dense":
        return np.array(op.W)
    if op.form == "factored":
        return op.W1 @ op.W2.T
    if op.form == "diagonal":
        return np.diag(op.d)
    raise ValueError(f"a {op.form} operator is not a square matrix over h_s")


def operator_frobenius_normalized(op: ConditionOperator) -> float:
    """Frobenius norm normalized by sqrt(#stored scalars) per form.

    The factored norm uses ||W1 W2^T||_F^2 = trace((W1^T W1)(W2^T W2)), so
    the dense product is never formed. The concat form has no norm here.
    """
    if op.form == "dense":
        nh = op.W.shape[0]
        return float(np.linalg.norm(op.W)) / float(np.sqrt(nh * nh))
    if op.form == "factored":
        nh, nk = op.W1.shape
        gram = (op.W1.T @ op.W1) @ (op.W2.T @ op.W2)
        sq = max(float(np.trace(gram)), 0.0)
        return float(np.sqrt(sq)) / float(np.sqrt(2 * nh * nk))
    if op.form == "diagonal":
        nh = op.d.shape[0]
        return float(np.linalg.norm(op.d)) / float(np.sqrt(nh))
    raise ValueError(f"a {op.form} operator is not a square matrix over h_s")


def operator_payload_bytes(op: ConditionOperator, element_bytes: int = 8) -> int:
    """Stored payload size for cache accounting (keys excluded)."""
    arrays = (op.W, op.W1, op.W2, op.d, op.Wcat, op.h_c)
    return sum(a.size for a in arrays if a is not None) * element_bytes


def save_checkpoint(
    path: str | Path, params: HyperNetParams, extras: dict[str, np.ndarray] | None = None
) -> None:
    """Write params (plus optional named extra tensors) at float32 precision."""
    path = Path(path)
    tensors = dict(params.tensors())
    for name, arr in (extras or {}).items():
        if name in tensors:
            raise ValueError(f"extra tensor name collides with a parameter: {name!r}")
        tensors[name] = np.asarray(arr, dtype=np.float64)
    manifest = []
    payloads = []
    offset = 0
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payloads.append(data)
        offset += len(data)
    header = {
        "mode": params.mode,
        "nh": params.nh,
        "nk": params.nk,
        "dropout_p": params.dropout_p,
        "tensors": manifest,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for data in payloads:
            fh.write(data)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path: str | Path) -> tuple[HyperNetParams, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (params, extra tensors).

    Any deviation from the format, including a missing or mistyped header
    field, tensor shapes that disagree with the header and non-finite
    payload values, raises FormatError.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if 16 + header_len > len(blob):
        raise FormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    mode, nh, nk = header.get("mode"), header.get("nh"), header.get("nk")
    dropout_p = header.get("dropout_p") or 0.0
    if mode not in MODES:
        raise FormatError(f"{path}: unknown mode {mode!r}")
    if not _is_count(nh) or nh == 0:
        raise FormatError(f"{path}: header nh must be a positive integer, got {nh!r}")
    if nk is not None and not _is_count(nk):
        raise FormatError(f"{path}: header nk must be an integer or null, got {nk!r}")
    if mode == "lowrank" and (nk is None or not 1 <= nk <= nh):
        raise FormatError(f"{path}: lowrank header needs 1 <= nk <= nh, got nk={nk!r}")
    if not isinstance(dropout_p, (int, float)) or not 0.0 <= dropout_p < 1.0:
        raise FormatError(f"{path}: header dropout_p must lie in [0, 1), got {dropout_p!r}")
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: header tensors must be a list")
    payload = blob[16 + header_len :]
    tensors: dict[str, np.ndarray] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: malformed tensor entry {entry!r}")
        name, shape, start = entry.get("name"), entry.get("shape"), entry.get("offset")
        well_formed = (
            isinstance(name, str)
            and isinstance(shape, list)
            and all(_is_count(n) for n in shape)
            and _is_count(start)
        )
        if not well_formed or name in tensors:
            raise FormatError(f"{path}: malformed or duplicate tensor entry {entry!r}")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise FormatError(f"{path}: payload truncated for tensor {name!r}")
        raw = np.frombuffer(payload[start:end], dtype="<f4")
        if not np.all(np.isfinite(raw)):
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
        tensors[name] = raw.astype(np.float64).reshape(shape)
    params = HyperNetParams(mode=mode, nh=nh, nk=nk, dropout_p=float(dropout_p))
    for name, shape in _tensor_shapes(mode, nh, nk).items():
        if name not in tensors:
            raise FormatError(f"{path}: checkpoint missing tensor {name!r} for mode {mode!r}")
        if tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, header implies {shape}"
            )
        setattr(params, name, tensors.pop(name))
    return params, tensors


def params_dim_check(params: HyperNetParams, provider_dim: int) -> None:
    if params.nh != provider_dim:
        raise ConfigError(
            f"checkpoint dimension {params.nh} does not match provider dimension {provider_dim}"
        )
