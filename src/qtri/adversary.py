"""Spectral adversary quantities for small partial Boolean functions.

Computes the weighted-adversary ratio lambda(G) / max_i lambda(G_i) for an
explicit domain, the 1-certificate size by exhaustive subset search, and the
certificate ceiling 2*sqrt(n*k) that the ratio can never exceed, together
with a numeric check of the vector decomposition behind that ceiling.

Every spectral norm here comes from one shifted power iteration over a stack
of matrices.  The shift is there because a valid matrix is nonzero only
between 0-inputs and 1-inputs: its spectrum comes in +/- pairs, so plain
power iteration would oscillate between the two ends instead of settling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

@dataclass(frozen=True)
class PartialBooleanFunction:
    """A 0/1-valued function on an explicit list of length-n strings."""

    n: int
    domain: tuple[str, ...]
    values: tuple[int, ...]
    alphabet: int = 2

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.alphabet < 2:
            raise ValueError("alphabet must be >= 2")
        if not self.domain:
            raise ValueError("domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain has duplicates")
        if len(self.values) != len(self.domain):
            raise ValueError("values must align with the domain")
        for word in self.domain:
            if len(word) != self.n:
                raise ValueError(f"input {word!r} does not have length {self.n}")
            if any(not ch.isdigit() or int(ch) >= self.alphabet for ch in word):
                raise ValueError(f"input {word!r} uses symbols outside the alphabet")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be 0 or 1")

    @property
    def size(self) -> int:
        return len(self.domain)

    def value(self, word: str) -> int:
        return self.values[self.domain.index(word)]

    def ones(self) -> list[int]:
        return [i for i, v in enumerate(self.values) if v == 1]

    def zeros(self) -> list[int]:
        return [i for i, v in enumerate(self.values) if v == 0]

    @classmethod
    def from_json(cls, obj: dict) -> "PartialBooleanFunction":
        domain = tuple(obj["domain"])
        values = tuple(int(obj["values"][w]) for w in domain)
        return cls(int(obj["n"]), domain, values, int(obj.get("alphabet", 2)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alphabet": self.alphabet,
            "domain": list(self.domain),
            "values": {w: v for w, v in zip(self.domain, self.values)},
        }


def load_function(path: str) -> PartialBooleanFunction:
    with open(path, "r", encoding="ascii") as fh:
        return PartialBooleanFunction.from_json(json.load(fh))


def load_matrix(path: str) -> np.ndarray:
    """Row-major matrix with index order matching the function's domain list."""
    with open(path, "r", encoding="ascii") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        obj = obj["matrix"]
    return np.asarray(obj, dtype=float)


def validate_gamma(f: PartialBooleanFunction, gamma: np.ndarray) -> str | None:
    """None when valid, else a description of the first violated constraint."""
    d = f.size
    if gamma.shape != (d, d):
        return f"matrix shape {gamma.shape} does not match domain size {d}"
    if (gamma < 0).any():
        i, j = map(int, np.argwhere(gamma < 0)[0])
        return f"negative entry at ({i},{j})"
    if not np.array_equal(gamma, gamma.T):
        i, j = map(int, np.argwhere(gamma != gamma.T)[0])
        return f"asymmetric at ({i},{j})"
    vals = np.asarray(f.values)
    same = vals[:, None] == vals[None, :]
    bad = same & (gamma != 0)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        return f"nonzero entry at ({i},{j}) but f({f.domain[i]}) == f({f.domain[j]})"
    return None


def gamma_i(f: PartialBooleanFunction, gamma: np.ndarray, position: int) -> np.ndarray:
    """Copy of the matrix with entries zeroed where the inputs agree at the position."""
    if not 1 <= position <= f.n:
        raise ValueError(f"position {position} out of range 1..{f.n}")
    chars = np.array([w[position - 1] for w in f.domain])
    differ = chars[:, None] != chars[None, :]
    return np.where(differ, gamma, 0.0)


def _dominant_eigenpairs(
    mats: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenvalue and unit eigenvector of each symmetric nonnegative
    matrix in a stack, by one shifted power iteration.

    A valid adversary matrix joins 0-inputs only to 1-inputs, so its spectrum
    comes in +/- pairs and plain iteration oscillates between the two ends.
    Iterating on M + shift*I with shift > 0 makes the top eigenvalue strictly
    dominant and keeps the iterate entrywise nonnegative.  Each matrix stops
    at its own convergence; an all-zero matrix gives exactly 0.0 with the
    uniform vector.  Raises `ArithmeticError` when any matrix misses
    `max_iter`.
    """
    batch, dim, _ = mats.shape
    lam = np.zeros(batch)
    vecs = np.full((batch, dim), 1.0 / math.sqrt(dim))
    todo = np.flatnonzero(mats.any(axis=(1, 2)))
    work = mats[todo]
    shifts = 0.05 * np.abs(work).sum(axis=2).max(axis=1) + tol
    diag = np.arange(dim)
    work[:, diag, diag] += shifts[:, None]
    x = vecs[todo, :, None]  # one column vector per matrix still iterating
    for _ in range(max_iter):
        if not todo.size:
            break
        y = work @ x
        rayleigh = x.transpose(0, 2, 1) @ y
        resid = y - rayleigh * x
        done = (resid.transpose(0, 2, 1) @ resid <= (tol * rayleigh) ** 2).ravel()
        if done.any():
            lam[todo[done]] = rayleigh[done, 0, 0] - shifts[done]
            vecs[todo[done]] = x[done, :, 0]
            keep = ~done
            todo, shifts, work, x, y = todo[keep], shifts[keep], work[keep], x[keep], y[keep]
        x = y / np.sqrt(y.transpose(0, 2, 1) @ y)
    if todo.size:
        raise ArithmeticError("power iteration did not converge within the cap")
    return lam, vecs


def spectral_norm(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 10**5) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix via power iteration."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.shape[0] > 4096:
        raise ValueError("dimension above 4096 not supported")
    return float(_dominant_eigenpairs(mat[None], tol, max_iter)[0][0])


def spectral_norm_batch(mats: np.ndarray, tol: float = 1e-8, max_iter: int = 4000) -> np.ndarray:
    """Largest eigenvalue of each matrix in a stack, as `spectral_norm` gives it."""
    return _dominant_eigenpairs(np.asarray(mats, dtype=float), tol, max_iter)[0]


def _norms(f: PartialBooleanFunction, gamma: np.ndarray) -> tuple[float, float]:
    """(lambda(G), max_i lambda(G_i)) for a valid matrix, one kernel call per matrix."""
    problem = validate_gamma(f, gamma)
    if problem is not None:
        raise ValueError(problem)
    lam = spectral_norm(gamma)
    return lam, max(spectral_norm(gamma_i(f, gamma, i)) for i in range(1, f.n + 1))


def adversary_value(
    f: PartialBooleanFunction, gamma: np.ndarray, epsilon: float = 0.0
) -> tuple[float, float]:
    """(spectral ratio, error-adjusted query lower bound) for a valid matrix."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    lam, denom = _norms(f, gamma)
    if denom <= 0.0:
        raise ValueError("all restricted matrices are zero; the ratio is undefined")
    raw_ratio = lam / denom
    factor = 1.0 - 2.0 * math.sqrt(epsilon * (1.0 - epsilon))
    return raw_ratio, factor * raw_ratio / 2.0


def min_certificate(f: PartialBooleanFunction, index: int) -> tuple[int, ...]:
    """Smallest position set whose values on this input force f = 1 on the domain.

    Forcing is domain-relative: every domain input agreeing on those positions
    must be a 1-input.  Exhaustive over subsets, smallest first.
    """
    if f.values[index] != 1:
        raise ValueError("certificates are defined for 1-inputs")
    word = f.domain[index]
    for size in range(f.n + 1):
        for subset in combinations(range(1, f.n + 1), size):
            if all(
                f.values[j] == 1
                for j, other in enumerate(f.domain)
                if all(other[pos - 1] == word[pos - 1] for pos in subset)
            ):
                return subset
    raise AssertionError("the full position set always certifies")


def certificate_size(f: PartialBooleanFunction) -> int:
    """Largest minimal 1-certificate over all 1-inputs."""
    if f.n > 20:
        raise ValueError("exhaustive certificate search is limited to n <= 20")
    ones = f.ones()
    if not ones:
        raise ValueError("function has no 1-input")
    return max(len(min_certificate(f, i)) for i in ones)


def ceiling_check(n: int, k: int, raw_ratio: float) -> tuple[float, bool, float]:
    """(ceiling 2*sqrt(n*k), raw_ratio <= ceiling up to 1e-8, slack ceiling - raw_ratio)."""
    ceiling = 2.0 * math.sqrt(n * k)
    return ceiling, raw_ratio <= ceiling + 1e-8, ceiling - raw_ratio


def barrier_check(f: PartialBooleanFunction, gamma: np.ndarray) -> tuple[bool, float]:
    """Check raw_ratio <= 2*sqrt(n*k) and return (ok, slack)."""
    k = certificate_size(f)
    lam, denom = _norms(f, gamma)
    raw_ratio = lam / denom if denom > 0.0 else 0.0  # an all-zero matrix has no ratio
    _, ok, slack = ceiling_check(f.n, k, raw_ratio)
    return ok, slack


def random_valid_gamma(f: PartialBooleanFunction, rng: np.random.Generator) -> np.ndarray:
    """Uniform entries on the allowed zero pattern, symmetrized."""
    d = f.size
    vals = np.asarray(f.values)
    allowed = vals[:, None] != vals[None, :]
    upper = np.triu(rng.random((d, d)), 1)
    upper[~allowed] = 0.0
    return upper + upper.T


def decomposition_diagnostic(f: PartialBooleanFunction, gamma: np.ndarray, tol: float = 1e-9) -> dict:
    """Numerically verify the vector decomposition behind the certificate ceiling.

    Builds the top eigenvector v, the per-position restrictions v_i supported
    on 1-inputs whose minimal certificate uses that position, and checks:
    the inner-product identity <v_i, v> = <v_i, v_i>, the entrywise bound
    sum_i v_i <= k*v, the pairing sum_i v_i^T G_i v >= lambda/2, and the norm
    chain ratio <= 2*sum|v_i| with sum|v_i| <= sqrt(n*k).  Reducible matrices
    may give v zero entries; the checks then apply on the support.
    """
    problem = validate_gamma(f, gamma)
    if problem is not None:
        raise ValueError(problem)
    lams, vecs = _dominant_eigenpairs(np.asarray(gamma, dtype=float)[None], 1e-12, 10**5)
    lam = float(lams[0])
    v = np.abs(vecs[0])  # shifted iteration keeps it nonnegative; guard the sign anyway
    certs = {i: set(min_certificate(f, i)) for i in f.ones()}
    k = max((len(c) for c in certs.values()), default=0)

    vs = []
    for pos in range(1, f.n + 1):
        mask = np.zeros(f.size)
        for i, cert in certs.items():
            if pos in cert:
                mask[i] = 1.0
        vs.append(v * mask)

    identity_err = max(abs(float(vi @ v) - float(vi @ vi)) for vi in vs)
    entrywise_excess = float((sum(vs) - k * v).max())
    pairing_lhs = sum(float(vi @ gamma_i(f, gamma, pos + 1) @ v) for pos, vi in enumerate(vs))
    vals = np.asarray(f.values)
    half_pattern = (vals[:, None] == 1) & (vals[None, :] == 0)
    half = float(v @ np.where(half_pattern, gamma, 0.0) @ v)
    norm_sum = sum(float(np.linalg.norm(vi)) for vi in vs)
    lam_parts = [spectral_norm(gamma_i(f, gamma, i)) for i in range(1, f.n + 1)]
    ratio = lam / max(lam_parts)

    checks = {
        "identity_error": identity_err,
        "entrywise_excess": entrywise_excess,
        "pairing_lhs": pairing_lhs,
        "pairing_rhs": lam / 2.0,
        "half_split_error": abs(half - lam / 2.0),
        "norm_sum": norm_sum,
        "norm_sum_ceiling": math.sqrt(f.n * k),
        "ratio": ratio,
        "ratio_ceiling": 2.0 * norm_sum,
    }
    checks["ok"] = bool(
        identity_err <= tol
        and entrywise_excess <= tol
        and pairing_lhs >= lam / 2.0 - tol
        and checks["half_split_error"] <= tol
        and norm_sum <= math.sqrt(f.n * k) + tol
        and ratio <= 2.0 * norm_sum + tol
    )
    return checks


# ---------------------------------------------------------------------------
# Stock instances


def or_function(n: int) -> PartialBooleanFunction:
    """Total OR on n bits (domain of all 2^n strings)."""
    domain = tuple(format(i, f"0{n}b") for i in range(2**n))
    values = tuple(1 if "1" in w else 0 for w in domain)
    return PartialBooleanFunction(n, domain, values)


def and_function(n: int) -> PartialBooleanFunction:
    domain = tuple(format(i, f"0{n}b") for i in range(2**n))
    values = tuple(1 if "0" not in w else 0 for w in domain)
    return PartialBooleanFunction(n, domain, values)


def or_star_instance(n: int) -> tuple[PartialBooleanFunction, np.ndarray]:
    """Promise OR: the all-zeros input against the n weight-one inputs, with
    the uniform star matrix connecting them."""
    zero = "0" * n
    domain = (zero,) + tuple(zero[:i] + "1" + zero[i + 1 :] for i in range(n))
    values = (0,) + (1,) * n
    f = PartialBooleanFunction(n, domain, values)
    gamma = np.zeros((n + 1, n + 1))
    gamma[0, 1:] = 1.0
    gamma[1:, 0] = 1.0
    return f, gamma


def triangle_property_function() -> PartialBooleanFunction:
    """Three-vertex graphs as three pair bits; 1 exactly when all pairs present."""
    domain = tuple(format(i, "03b") for i in range(8))
    values = tuple(1 if w == "111" else 0 for w in domain)
    return PartialBooleanFunction(3, domain, values)
