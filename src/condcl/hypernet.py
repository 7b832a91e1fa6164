"""Condition operators and the networks that produce them.

A condition embedding h_c becomes a linear operator that projects sentence
embeddings into a condition-specific subspace. The mode fixes the operator:
"full" generates a dense nh x nh matrix, "lowrank" a W1 @ W2.T pair of rank
nk that is never multiplied out, "hadamard" is diag(h_c), and "concat" is a
merge Wcat @ [h_c; h_s]. Only this module knows the shapes
(``_tensor_shapes``) and rules (``generator_problem``) of a mode's
generator. An operator is a stack of R conditions' operators. There is one
formula from conditions to operators, ``generate_stack``, which is also the
only constructor of a ``ConditionOperator``: one linear-layer node
``H @ U.T + bias`` (``autodiff.linear``) per generator tensor for a stack H
of condition embeddings, over ndarrays and autodiff Tensors alike.
Training and serving generate a batch's or a stream's conditions as one stack;
evaluation and ``analyze clusters`` generate theirs with ``generate_blocks``,
which checks a call's condition embeddings once and generates them
GENERATE_BLOCK rows (a bound on memory) at a time. Params from
``load_checkpoint`` keep the operators of the last GENERATE_BLOCK conditions
they generated, so ``generate_blocks`` makes a loaded condition's operator
once across calls. There is one way to apply a stack, ``apply_stack``: each
row of a row matrix through the operator its index names (one int for every
row, or one index per row), in row order. Over ndarrays both give ndarrays;
only training's Tensors build a graph. Evaluation scores projected rows P
through ``factored_projection``, P = Z @ W1.T. A lowrank P is never formed:
Z = rows @ W2 is N x nk, and the Gram W1^T W1 gives P's dots and clipped
norms in rank-nk space, for KGC head queries and C-STS records alike.

Checkpoint format: 8-byte magic ``HYPERCL1``, an 8-byte little-endian
unsigned header length, a UTF-8 JSON header {mode, nh, nk, tensors: [{name,
shape, offset}]}, then little-endian float32 payloads at the given byte
offsets, in manifest order. A load ignores other header fields, such as the
concat dropout rate that files written by earlier versions carry. Tensors
are written and read in bounded chunks of CHUNK_VALUES values, so a save
holds one float32 chunk beyond the params and a load peaks at about the
float64 tensors plus one chunk; the whole file is never held in memory.
A load returns read-only tensors.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .errors import DimensionMismatchError, FormatError
from .linalg import as_float_array, as_vector, is_integer

__all__ = [
    "MODES",
    "HyperNetParams",
    "ConditionOperator",
    "default_nk",
    "generator_problem",
    "init_params",
    "generate_stack",
    "apply_stack",
    "factored_projection",
    "generate_blocks",
    "param_count",
    "operator_frobenius_normalized",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

MODES = ("full", "lowrank", "hadamard", "concat")
CHECKPOINT_MAGIC = b"HYPERCL1"

INIT_WEIGHT_STD = 0.02
DEFAULT_RANK_DIVISOR = 12
GENERATE_BLOCK = 32  # conditions per generating product: bounds the output memory
CHUNK_VALUES = 1 << 20  # float32 values per checkpoint read or write: bounds the buffer memory
MAX_TENSOR_DIMS = 32  # array rank numpy accepts on every supported version (1.x: 32, 2.x: 64)


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

    ``tensors`` maps the mode's tensor names to arrays, in checkpoint
    manifest order (see ``_tensor_shapes``); hadamard has none. nk is
    meaningful only for lowrank. Full or lowrank params from ``load_checkpoint``
    carry a memo of the operators ``generate_blocks`` made; a call that finds a
    tensor replaced or writeable drops it for good.
    """

    mode: str
    nh: int
    nk: int | None = None
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    # (weak references to the loaded tensors, condition bytes -> arrays): see ``_memo_of``
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class ConditionOperator:
    """The linear maps of a stack of R conditions, applied by ``apply_stack``.

    ``arrays`` holds the mode's per-condition arrays, R of each on axis 0:

      - full: W (R x nh x nh), operator r maps h_s to W[r] @ h_s;
      - lowrank: W1, W2 (R x nh x nk each), W1[r] @ (W2[r].T @ h_s);
      - hadamard: d (R x nh), d[r] * h_s;
      - concat: the condition embeddings h_c (R x nh) and the shared ``Wcat``
        (nh x 2nh), Wcat @ [h_c[r]; h_s] (times a dropout mask when training).

    Arrays are ndarrays, or autodiff Tensors inside the loss closures.
    """

    mode: str
    arrays: dict
    Wcat: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """(R, n): the operators in the stack and the width of the rows they take."""
        first = next(iter(self.arrays.values()))
        # Rows enter W[r] along its last axis, which a non-square W keeps apart.
        return first.shape[0], first.shape[2 if self.mode == "full" else 1]


def default_nk(nh: int) -> int:
    """Rank used for lowrank operators when none is given."""
    return max(1, nh // DEFAULT_RANK_DIVISOR)


def generator_problem(mode, nh, nk) -> str | None:
    """Why (mode, nh, nk) describes no generator, or None if it does.
    A lowrank nk of None means ``default_nk``."""
    if mode not in MODES:
        return f"unknown mode {mode!r}, expected one of {MODES}"
    if not is_integer(nh):
        return f"nh must be an integer, got {nh!r}"
    if nk is not None and not is_integer(nk):
        return f"nk must be an integer, got {nk!r}"
    if nh < 1:
        return f"nh must be positive, got {nh}"
    if mode == "lowrank" and nk is not None and not 1 <= nk <= nh:
        return f"lowrank requires 1 <= nk <= nh, got nk={nk}, nh={nh}"
    return None


def init_params(mode: str, nh: int, nk: int | None = None, seed: int = 0) -> HyperNetParams:
    """Seeded parameter initialization, one draw per tensor in manifest order.

    Weights are small Gaussians. Full mode starts at (approximately) the
    identity operator: its bias is the flattened identity, so an untrained
    model roughly preserves sentence embeddings. Lowrank cannot represent
    the identity for nk < nh, so its biases are small random values too.
    """
    problem = generator_problem(mode, nh, nk)
    if problem is not None:
        raise ValueError(problem)
    nk = int(nk or default_nk(nh)) if mode == "lowrank" else None
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _tensor_shapes(mode, nh, nk).items():
        if not name.endswith("_bias"):
            tensors[name] = rng.normal(0.0, INIT_WEIGHT_STD, size=shape)
        elif mode == "full":
            tensors[name] = np.eye(nh).reshape(shape)
        else:
            tensors[name] = rng.normal(0.0, INIT_WEIGHT_STD / np.sqrt(nk), size=shape)
    return HyperNetParams(mode, int(nh), nk, tensors)


def generate_stack(mode: str, tensors, H) -> ConditionOperator:
    """The operators of condition embeddings H (R x nh) as one stacked operator.

    ``tensors`` maps the mode's learnable tensor names to ndarrays or autodiff
    Tensors; names it does not need are ignored; nh and nk follow from them
    and H. No input is validated. Each generator tensor U is one linear-layer
    node ``H @ U.T + bias`` (``autodiff.linear``), whose U gradient is G.T @ H.
    """

    def generated(name):
        return ad.linear(H, tensors[name], tensors[name + "_bias"], H.shape + (-1,))

    if mode == "full":
        return ConditionOperator(mode, {"W": generated("U")})
    if mode == "lowrank":
        return ConditionOperator(mode, {"W1": generated("U1"), "W2": generated("U2")})
    if mode == "hadamard":
        return ConditionOperator(mode, {"d": H})
    if mode == "concat":
        return ConditionOperator(mode, {"h_c": H}, tensors["Wcat"])
    raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def apply_stack(op: ConditionOperator, h_s, which, mask=None) -> np.ndarray | ad.Tensor:
    """Row i of h_s through operator ``which[i]`` of a stacked operator, in row order.

    h_s is B x n rows, or one row as a 1-D vector; ``which`` holds each row's
    operator index, or is one int for every row; ``mask`` (B x 2n) scales each
    row's concat input. Returns the B projected rows: an ndarray, or a graph node
    when the operator holds Tensors. Rows enter the operators here, so they are
    checked here: finite, n wide, and each sent to an operator of the stack."""
    rows, width = np.atleast_2d(as_vector(h_s, "h_s", ndims=(1, 2))), op.shape[1]
    if rows.shape[1] != width:
        raise DimensionMismatchError(f"{op.mode} operator takes width {width}, got {rows.shape[1]}")
    if op.mode == "full":
        return ad.grouped_matmul(rows, op.arrays["W"], which, transpose=True)
    if op.mode == "lowrank":
        inner = ad.grouped_matmul(rows, op.arrays["W2"], which)
        return ad.grouped_matmul(inner, op.arrays["W1"], which, transpose=True)
    which = ad.check_which(which, op.shape[0], len(rows))
    if op.mode == "hadamard":  # d is the condition embeddings, an ndarray
        return op.arrays["d"][which] * rows
    x = np.concatenate([np.broadcast_to(op.arrays["h_c"][which], rows.shape), rows], axis=1)
    return ad.linear(x if mask is None else x * mask, op.Wcat)


def factored_projection(op: ConditionOperator, rows, r: int):
    """Rows (N x n) projected by operator r of a stack, P = ``apply_stack(op, rows, r)``,
    as ``(W1, Z, ZG, norms)`` with P = Z @ W1.T, P @ P.T = ZG @ Z.T and norms P's row
    norms. Other modes form P: W1 is None (the identity) and Z = ZG = P. A lowrank
    P is never formed: Z = rows @ W2 (N x nk), ZG = Z @ (W1^T W1), and ||P_i||^2 =
    z_i (W1^T W1) z_i^T is clipped at zero against rounding (so a zero row has norm
    0). Lowrank rows are checked as ``apply_stack`` checks them, except that their
    finiteness is read off Z (a non-finite entry spoils its row of Z): rows met by
    many operators are scanned in full once, by the caller."""
    if op.mode != "lowrank":
        P = apply_stack(op, rows, r)
        return None, P, P, np.linalg.norm(P, axis=1)
    r = ad.check_which(r, op.shape[0], 1)
    W1, W2 = op.arrays["W1"][r], op.arrays["W2"][r]
    rows = as_float_array(rows, "h_s")
    if rows.ndim != 2 or rows.shape[1] != len(W2):
        raise DimensionMismatchError(f"lowrank operator takes N x {len(W2)} rows, got {rows.shape}")
    with np.errstate(invalid="ignore"):  # inf entries may make NaNs here; refused below
        Z = rows @ W2
    if not np.isfinite(Z).all():
        raise ValueError("h_s contains non-finite entries")
    ZG = Z @ (W1.T @ W1)
    return W1, Z, ZG, np.sqrt(np.maximum(np.einsum("ij,ij->i", ZG, Z), 0.0))


def generate_blocks(params: HyperNetParams, H) -> Iterator[tuple[slice, ConditionOperator]]:
    """The operators of condition embeddings H (R x nh), GENERATE_BLOCK rows at a
    time: ``(block, op)`` in order, where op is the ``generate_stack`` of H[block], so
    row ``block.start + r`` of H is operator r of op. H is validated at the call:
    2-D, finite and nh wide. The block bounds the memory of the operators.

    Loaded params (see ``HyperNetParams``) keep the arrays of the last
    GENERATE_BLOCK conditions they generated, keyed by the condition embedding's
    bytes (first in, first out). A block whose rows are all kept is stacked from
    the kept arrays; any other block is generated whole, in one ``generate_stack``,
    and its rows are kept. Other params generate every block."""
    H = as_vector(H, "H", ndims=(2,))
    if H.shape[1] != params.nh:
        raise DimensionMismatchError(f"h_c has dim {H.shape[1]}, generator expects {params.nh}")
    blocks = (slice(lo, lo + GENERATE_BLOCK) for lo in range(0, len(H), GENERATE_BLOCK))
    memo = _memo_of(params)
    if memo is None:
        return ((b, generate_stack(params.mode, params.tensors, H[b])) for b in blocks)
    return ((b, _memoised_stack(params, memo, H[b])) for b in blocks)


def _memo_of(params: HyperNetParams) -> dict | None:
    """The memo ``load_checkpoint`` gave params, condition bytes to that condition's
    arrays, oldest first, or None. A memo holds while params hold the tensors it
    was made from, none writeable; otherwise it is dropped for good."""
    if params._memo is not None:
        refs, memo = params._memo  # weak: a replaced tensor is not kept alive by the memo
        tensors = params.tensors
        if refs.keys() == tensors.keys() and all(
            refs[name]() is t and not t.flags.writeable for name, t in tensors.items()
        ):
            return memo
        params._memo = None
    return None


def _memoised_stack(params: HyperNetParams, memo: dict, H: np.ndarray) -> ConditionOperator:
    """The ``generate_stack`` of one block H of loaded params' conditions: restacked
    from ``memo`` if it holds every row, else generated whole and kept as the newest."""
    keys = [h.tobytes() for h in H]
    if all(key in memo for key in keys):
        names = memo[keys[0]]
        return ConditionOperator(params.mode, {n: np.stack([memo[k][n] for k in keys]) for n in names})
    op = generate_stack(params.mode, params.tensors, H)
    for j, key in enumerate(keys):
        memo.pop(key, None)
        memo[key] = {name: a[j].copy() for name, a in op.arrays.items()}
    while len(memo) > GENERATE_BLOCK:
        del memo[next(iter(memo))]
    return op


def param_count(params: HyperNetParams) -> int:
    """Exact number of learnable scalars."""
    return sum(t.size for t in params.tensors.values())


def operator_frobenius_normalized(op: ConditionOperator) -> np.ndarray:
    """Each operator's Frobenius norm over sqrt(#stored scalars of its mode): shape (R,).

    The lowrank norm uses ||W1 W2^T||_F^2 = trace((W1^T W1)(W2^T W2)), so
    the dense product is never formed. A concat operator has no norm here.
    """
    a = op.arrays
    if op.mode == "full":
        R, nh, _ = a["W"].shape
        return np.linalg.norm(a["W"].reshape(R, -1), axis=1) / np.sqrt(nh * nh)
    if op.mode == "lowrank":
        W1, W2 = a["W1"], a["W2"]
        _, nh, nk = W1.shape
        gram = (W1.transpose(0, 2, 1) @ W1) @ (W2.transpose(0, 2, 1) @ W2)
        sq = np.maximum(np.trace(gram, axis1=1, axis2=2), 0.0)
        return np.sqrt(sq) / np.sqrt(2 * nh * nk)
    if op.mode == "hadamard":
        return np.linalg.norm(a["d"], axis=1) / np.sqrt(a["d"].shape[1])
    raise ValueError(f"a {op.mode} operator is not a square matrix over h_s")


def save_checkpoint(
    path: str | Path, params: HyperNetParams, extras: dict[str, np.ndarray] | None = None
) -> None:
    """Write params (plus optional named extra tensors) at float32 precision.

    The manifest offsets follow from the shapes, so the header goes first and
    each tensor is then converted and written CHUNK_VALUES values at a time."""
    path = Path(path)
    tensors = dict(params.tensors)
    for name, arr in (extras or {}).items():
        if name in tensors:
            raise ValueError(f"extra tensor name collides with a parameter: {name!r}")
        tensors[name] = np.asarray(arr, dtype=np.float64)
    manifest = []
    offset = 0
    for name, arr in tensors.items():
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 4 * arr.size
    header = {
        "mode": params.mode,
        "nh": params.nh,
        "nk": params.nk,
        "tensors": manifest,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    chunk = np.empty(CHUNK_VALUES, dtype="<f4")
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arr in tensors.values():
            flat = np.ravel(arr)
            for i in range(0, flat.size, CHUNK_VALUES):
                part = chunk[: min(CHUNK_VALUES, flat.size - i)]
                part[:] = flat[i : i + len(part)]
                fh.write(part)


def load_checkpoint(path: str | Path) -> tuple[HyperNetParams, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (params, extra tensors).

    Any deviation from the format, including a missing or mistyped header
    field, tensor shapes that disagree with the header and non-finite
    payload values, raises FormatError. Each tensor is read from the open
    file CHUNK_VALUES float32 values at a time into one reused buffer,
    checked and widened into its float64 array, so the peak memory is the
    float64 tensors plus one chunk. Every returned tensor is a read-only array
    that owns its data; full and lowrank params carry the generation memo (see
    ``HyperNetParams``). To train from them, copy the tensors.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if preamble[:8] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {preamble[:8]!r}")
        if len(preamble) < 16:
            raise FormatError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<Q", preamble[8:16])
        if 16 + header_len > size:
            raise FormatError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: checkpoint header is not a JSON object")
        mode, nh, nk = header.get("mode"), header.get("nh"), header.get("nk")
        problem = generator_problem(mode, nh, nk)
        if problem is not None:
            raise FormatError(f"{path}: header: {problem}")
        if mode == "lowrank" and nk is None:
            raise FormatError(f"{path}: lowrank header needs nk")
        entries = header.get("tensors")
        if not isinstance(entries, list):
            raise FormatError(f"{path}: header tensors must be a list")
        base = 16 + header_len
        chunk = np.empty(CHUNK_VALUES, dtype="<f4")
        tensors: dict[str, np.ndarray] = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise FormatError(f"{path}: malformed tensor entry {entry!r}")
            name, shape, start = entry.get("name"), entry.get("shape"), entry.get("offset")
            well_formed = (
                isinstance(name, str)
                and isinstance(shape, list)
                and all(is_integer(n) and n >= 0 for n in shape)
                and is_integer(start) and start >= 0
            )
            if not well_formed or name in tensors:
                raise FormatError(f"{path}: malformed or duplicate tensor entry {entry!r}")
            # A zero dimension makes any other dimension cost no payload bytes.
            if len(shape) > MAX_TENSOR_DIMS or 8 * math.prod(n for n in shape if n) > sys.maxsize:
                raise FormatError(f"{path}: tensor {name!r} has shape {shape}, too large for an array")
            count = math.prod(shape)
            if base + start + 4 * count > size:
                raise FormatError(f"{path}: payload truncated for tensor {name!r}")
            out = np.empty(shape, dtype=np.float64)
            flat = out.reshape(-1)
            fh.seek(base + start)
            for i in range(0, count, CHUNK_VALUES):
                part = chunk[: min(CHUNK_VALUES, count - i)]
                if fh.readinto(part) != part.nbytes:
                    raise FormatError(f"{path}: payload truncated for tensor {name!r}")
                if not np.isfinite(part).all():
                    raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
                flat[i : i + len(part)] = part
            out.flags.writeable = False
            tensors[name] = out
    shapes = _tensor_shapes(mode, nh, nk)
    for name, shape in shapes.items():
        if name not in tensors:
            raise FormatError(f"{path}: checkpoint missing tensor {name!r} for mode {mode!r}")
        if tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, header implies {shape}"
            )
    params = HyperNetParams(mode, nh, nk, {k: tensors.pop(k) for k in shapes})
    if mode in ("full", "lowrank"):  # hadamard and concat operators hold the conditions
        params._memo = ({name: weakref.ref(t) for name, t in params.tensors.items()}, {})
    return params, tensors
