"""PCA reduction, linear multi-class SVM scoring, and average score fusion.

The covariance eigen-decomposition uses deterministic cyclic Jacobi
sweeps (tolerance 1e-10), switching to the Gram-matrix dual when there
are fewer samples than dimensions so the rotation count stays small.
SVM training is Pegasos-style seeded stochastic subgradient descent,
one-vs-rest.  Fusion is the per-coordinate arithmetic mean computed with
exact summation, so stream order can never change the result.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractError, FormatError, ParseError, RankError

JACOBI_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 60


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)  # (k, d), orthonormal rows
    variance_fractions: np.ndarray = field(repr=False)  # (k,), descending


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray = field(repr=False)  # (classes, d)
    biases: np.ndarray = field(repr=False)  # (classes,)
    labels: tuple[str, ...]
    regularization: float

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ScoreVector:
    """Per-class scores ordered by class label."""

    values: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.normalized:
            v = self.values
            if np.any(v < 0) or np.any(v > 1) or abs(float(v.sum()) - 1.0) > 1e-6:
                raise ContractError("normalized scores must lie on the simplex")


def jacobi_eigh(matrix: np.ndarray, tol: float = JACOBI_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns:
        (eigenvalues, eigenvectors): columns of the second array are the
        eigenvectors, unsorted.  Deterministic: fixed sweep order, fixed
        rotation formulas, convergence when the off-diagonal Frobenius
        mass falls below tol relative to the total.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"matrix must be square, got {a.shape}")
    m = a.shape[0]
    v = np.eye(m)
    if m == 1:
        return a.diagonal().copy(), v
    total = np.linalg.norm(a)
    if total == 0.0:
        return np.zeros(m), v
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(max(0.0, float(np.sum(a**2) - np.sum(a.diagonal() ** 2))))
        if off <= tol * total:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    return a.diagonal().copy(), v


def _as_matrix(samples: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        mat = np.asarray(samples, dtype=np.float64)
        if mat.ndim != 2:
            raise ContractError(f"sample matrix must be 2D, got shape {mat.shape}")
        return mat
    rows = [np.asarray(s, dtype=np.float64) for s in samples]
    if not rows:
        raise ContractError("no samples given")
    dim = len(rows[0])
    for i, r in enumerate(rows):
        if r.ndim != 1 or len(r) != dim:
            raise ContractError(
                f"sample {i} has length {r.shape}, expected ({dim},)"
            )
    return np.stack(rows)


def pca_fit(
    samples: Sequence[np.ndarray] | np.ndarray,
    target: float | int = 0.95,
) -> PcaModel:
    """Fit PCA on the sample covariance.

    Args:
        samples: n >= 2 vectors of uniform length.
        target: retained-variance fraction in (0, 1], or an integer fixed
            component count.

    Returns:
        PcaModel keeping the smallest k whose cumulative explained
        variance reaches the target (or exactly the fixed k).

    Raises:
        RankError: all samples identical (zero covariance).
        ContractError: fewer than 2 samples, ragged lengths, or an
            unreachable fixed k.
    """
    x = _as_matrix(samples)
    n, d = x.shape
    if n < 2:
        raise ContractError(f"need at least 2 samples, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    if not np.any(centered):
        raise RankError("all samples are identical; covariance has no rank")
    total_var = float(np.sum(centered**2)) / (n - 1)
    if d <= n or d <= 48:
        cov = centered.T @ centered / (n - 1)
        eigvals, eigvecs = jacobi_eigh(cov)
        order = np.argsort(-eigvals, kind="stable")
        eigvals = np.clip(eigvals[order], 0.0, None)
        basis = eigvecs[:, order].T  # rows are components
    else:
        # Dual (Gram) route: eigenvectors of X X^T / (n-1) lift to
        # covariance eigenvectors; covers every nonzero eigenvalue.
        gram = centered @ centered.T / (n - 1)
        eigvals, eigvecs = jacobi_eigh(gram)
        order = np.argsort(-eigvals, kind="stable")
        eigvals = np.clip(eigvals[order], 0.0, None)
        keep = eigvals > eigvals[0] * 1e-12
        eigvals = eigvals[keep]
        u = eigvecs[:, order][:, keep]
        basis = (centered.T @ u / np.sqrt((n - 1) * eigvals)).T
    fractions = eigvals / total_var
    if isinstance(target, (int, np.integer)) and not isinstance(target, bool):
        k = int(target)
        if not 1 <= k <= len(basis):
            raise ContractError(
                f"fixed k={k} unavailable; {len(basis)} components exist"
            )
    else:
        t = float(target)
        if not 0.0 < t <= 1.0:
            raise ContractError(f"variance target must be in (0, 1], got {t}")
        cumulative = np.cumsum(fractions)
        reached = np.nonzero(cumulative >= t - 1e-12)[0]
        k = int(reached[0]) + 1 if len(reached) else len(basis)
    return PcaModel(
        mean=mean,
        components=basis[:k].copy(),
        variance_fractions=fractions[:k].copy(),
    )


def pca_project(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """Project one vector: (v - mean) @ components^T."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != model.mean.shape:
        raise ContractError(
            f"vector length {vec.shape} does not match model dimension "
            f"{model.mean.shape}"
        )
    return (vec - model.mean) @ model.components.T


def svm_train(
    samples: Sequence[np.ndarray] | np.ndarray,
    labels: Sequence[str],
    regularization: float = 1e-3,
    epochs: int = 20,
    seed: int | Sequence[int] = 0,
) -> SvmModel:
    """One-vs-rest linear SVMs via Pegasos subgradient descent.

    Each class trains on hinge loss with step size 1/(reg * t) for
    iteration t, sampling indices from a generator seeded by (seed,
    class index); identical arguments always produce identical models.
    """
    x = _as_matrix(samples)
    y = list(labels)
    if len(y) != len(x):
        raise ContractError(f"{len(x)} samples but {len(y)} labels")
    if regularization <= 0:
        raise ContractError(f"regularization must be positive, got {regularization}")
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise ContractError(f"need at least 2 classes, got {classes}")
    n, d = x.shape
    weights = np.zeros((len(classes), d))
    biases = np.zeros(len(classes))
    steps = epochs * n
    base = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    for ci, cls in enumerate(classes):
        sign = np.where(np.asarray(y) == cls, 1.0, -1.0)
        rng = np.random.default_rng(base + [ci])
        picks = rng.integers(0, n, size=steps)
        w = np.zeros(d)
        b = 0.0
        # Pegasos on the augmented vector [w; b], i.e. the bias rides along
        # as a constant-1 feature and decays with the weights.
        for t, i in enumerate(picks, start=1):
            eta = 1.0 / (regularization * t)
            margin = sign[i] * (w @ x[i] + b)
            decay = 1.0 - eta * regularization
            w *= decay
            b *= decay
            if margin < 1.0:
                w += eta * sign[i] * x[i]
                b += eta * sign[i]
        weights[ci] = w
        biases[ci] = b
    return SvmModel(weights, biases, classes, regularization)


def svm_margins(model: SvmModel, v: np.ndarray) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (model.dim,):
        raise ContractError(
            f"vector length {vec.shape} does not match model dimension {model.dim}"
        )
    return model.weights @ vec + model.biases


def svm_score(model: SvmModel, v: np.ndarray, normalize: bool = True) -> ScoreVector:
    """Per-class scores: softmax-normalized margins by default, raw otherwise.

    Softmax is monotone, so the argmax always equals the raw-margin argmax.
    """
    margins = svm_margins(model, v)
    if not normalize:
        return ScoreVector(values=margins, normalized=False)
    shifted = np.exp(margins - margins.max())
    return ScoreVector(values=shifted / shifted.sum(), normalized=True)


def fuse_scores(streams: Sequence[ScoreVector]) -> ScoreVector:
    """Elementwise arithmetic mean of per-stream score vectors.

    All inputs must agree on length and normalization state.  Each
    coordinate is averaged with exact (fsum) summation and an all-equal
    short-circuit, making the fusion exactly permutation-invariant and
    exactly idempotent.
    """
    if not streams:
        raise ContractError("cannot fuse an empty stream list")
    length = len(streams[0].values)
    normalized = streams[0].normalized
    for i, s in enumerate(streams):
        if len(s.values) != length:
            raise ContractError(
                f"stream {i} has {len(s.values)} classes, expected {length}"
            )
        if s.normalized != normalized:
            raise ContractError("cannot fuse normalized with unnormalized scores")
    stacked = np.stack([s.values for s in streams])
    out = np.empty(length)
    for j in range(length):
        column = stacked[:, j]
        first = column[0]
        if np.all(column == first):
            out[j] = first
        else:
            out[j] = math.fsum(column) / len(column)
    return ScoreVector(values=out, normalized=normalized)


_MODEL_MAGIC = b"DMM1"


def save_models(path: str | Path, pca: PcaModel, svms: Sequence[SvmModel]) -> None:
    """Write one feature slot's models as a versioned little-endian binary.

    The slot's streams share their PCA and their class labels, so both are
    stored once.  Layout: magic, u32 version, u32 class count,
    length-prefixed UTF-8 labels, u32 SVM count, f64 regularization per
    SVM, then (rows, cols)-prefixed f32le arrays: pca mean, pca
    components, pca variance fractions, then weights and biases per SVM.
    A load/save cycle reproduces the file byte-for-byte.
    """
    labels = svms[0].labels
    if any(svm.labels != labels for svm in svms):
        raise ContractError("the SVMs of one model file must score the same labels")
    blob = bytearray(_MODEL_MAGIC)
    blob += struct.pack("<II", 2, len(labels))
    for label in labels:
        encoded = label.encode()
        blob += struct.pack("<I", len(encoded))
        blob += encoded
    blob += struct.pack(f"<I{len(svms)}d", len(svms), *(svm.regularization for svm in svms))
    arrays = [pca.mean, pca.components, pca.variance_fractions]
    for svm in svms:
        arrays += [svm.weights, svm.biases]
    for arr in arrays:
        two_d = np.atleast_2d(arr)
        blob += struct.pack("<II", *two_d.shape)
        blob += two_d.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


class _Reader:
    """Cursor over a model file that raises ParseError on short input and
    FormatError on a non-finite array value."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        chunk = self.data[self.offset : self.offset + n]
        if len(chunk) != n:
            raise ParseError(f"truncated model file: {n} bytes wanted at byte {self.offset}")
        self.offset += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, name: str) -> np.ndarray:
        rows, cols = self.unpack("<II")
        flat = np.frombuffer(self.take(4 * rows * cols), dtype="<f4")
        if not np.isfinite(flat).all():
            raise FormatError(f"{name} holds a NaN or an infinity")
        return flat.reshape(rows, cols).astype(np.float64)


def load_models(path: str | Path) -> tuple[PcaModel, list[SvmModel]]:
    """Read a file written by save_models: the slot's PCA and its SVMs in order.
    A PCA of 0 components or over 0 inputs, which pca_fit never writes, is rejected."""
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(4)
    if magic != _MODEL_MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {_MODEL_MAGIC!r}")
    version, n_labels = reader.unpack("<II")
    if version != 2:
        raise FormatError(f"unsupported model version {version}")
    try:
        labels = tuple(reader.take(*reader.unpack("<I")).decode() for _ in range(n_labels))
    except UnicodeDecodeError as exc:
        raise ParseError(f"a label is not UTF-8: {exc}") from None
    (n_svms,) = reader.unpack("<I")
    regs = reader.unpack(f"<{n_svms}d")
    names = ["pca mean", "pca components", "pca variance fractions"]
    names += [f"svm {i} {part}" for i in range(n_svms) for part in ("weights", "biases")]
    mean, comps, fracs, *rest = [reader.array(name) for name in names]
    if reader.offset != len(reader.data):
        raise FormatError(f"{len(reader.data) - reader.offset} bytes after the last array")
    pca = PcaModel(mean.ravel(), comps, fracs.ravel())
    svms = [SvmModel(w, b.ravel(), labels, r) for r, w, b in zip(regs, rest[::2], rest[1::2])]
    k, d = comps.shape
    if not svms or (k, d) != (len(pca.variance_fractions), len(pca.mean)) or any(
        svm.weights.shape != (n_labels, k) or svm.biases.shape != (n_labels,) for svm in svms
    ):
        raise FormatError(f"{path} holds no SVM, or its array shapes disagree")
    if k == 0 or d == 0:
        raise FormatError(f"{path} holds a PCA of {k} components over {d} inputs")
    return pca, svms
