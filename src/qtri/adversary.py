"""Spectral adversary quantities for small partial Boolean functions.

Computes the weighted-adversary ratio lambda(G) / max_i lambda(G_i) for an
explicit domain, the 1-certificate size by exhaustive subset search, and the
certificate ceiling 2*sqrt(n*k) that the ratio can never exceed, together
with a numeric check of the vector decomposition behind that ceiling.

Every spectral norm and the diagnostic's eigenvector come from LAPACK's
symmetric eigensolver (`np.linalg.eigvalsh` / `eigh`), which is exact to
rounding at the small dimensions these functions have and has no iteration
cap to miss.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
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

    def ones(self) -> list[int]:
        return [i for i, v in enumerate(self.values) if v == 1]

    @cached_property
    def _certificates(self) -> dict[int, tuple[int, ...]]:
        """`min_certificate` of each 1-input, searched once per function."""
        return {i: min_certificate(self, i) for i in self.ones()}

    @classmethod
    def from_json(cls, obj: dict) -> "PartialBooleanFunction":
        """Parse the `to_json` form; a missing key or a field of the wrong type
        raises ValueError."""
        try:
            domain, values = obj["domain"], obj["values"]
            return cls(int(obj["n"]), tuple(domain), tuple(int(values[w]) for w in domain),
                       int(obj.get("alphabet", 2)))
        except KeyError as exc:
            raise ValueError(f"function JSON has no key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"function JSON has a field of the wrong type: {exc}") from None

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
    try:
        return np.asarray(obj["matrix"] if isinstance(obj, dict) else obj, dtype=float)
    except KeyError as exc:
        raise ValueError(f"matrix JSON has no key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"matrix JSON is not a numeric matrix: {exc}") from None


def validate_gamma(f: PartialBooleanFunction, gamma: np.ndarray) -> str | None:
    """None when valid, else a description of the first violated constraint."""
    d = f.size
    if gamma.shape != (d, d):
        return f"matrix shape {gamma.shape} does not match domain size {d}"
    if not np.isfinite(gamma).all():
        i, j = map(int, np.argwhere(~np.isfinite(gamma))[0])
        return f"non-finite entry at ({i},{j})"
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


def _symmetric_nonnegative(mats: np.ndarray, ndim: int) -> np.ndarray:
    """The input as a float array of square, finite, symmetric, nonnegative
    matrices in its last two axes.  The eigensolver reads one triangle only, so anything
    else raises ValueError here instead of giving a wrong eigenvalue."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != ndim or mats.shape[-1] != mats.shape[-2]:
        raise ValueError("matrix must be square")
    if mats.shape[-1] > 4096:
        raise ValueError("dimension above 4096 not supported")
    if not np.isfinite(mats).all():
        raise ValueError("matrix must be finite")
    if not np.array_equal(mats, np.swapaxes(mats, -1, -2)):
        raise ValueError("matrix must be symmetric")
    if (mats < 0).any():
        raise ValueError("matrix must be nonnegative")
    return mats


def spectral_norm(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix."""
    return float(np.linalg.eigvalsh(_symmetric_nonnegative(mat, 2))[-1])


def spectral_norm_batch(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix in a stack, as `spectral_norm` gives it."""
    return np.linalg.eigvalsh(_symmetric_nonnegative(mats, 3))[:, -1]


_ZERO_RATIO = "all restricted matrices are zero; the ratio is undefined"


def _restricted_norm(f: PartialBooleanFunction, gamma: np.ndarray) -> float:
    """max_i lambda(G_i); ValueError when the matrix is invalid or every G_i is zero."""
    problem = validate_gamma(f, gamma)
    if problem is not None:
        raise ValueError(f"invalid adversary matrix: {problem}")
    restricted = np.stack([gamma_i(f, gamma, i) for i in range(1, f.n + 1)])
    denom = float(spectral_norm_batch(restricted).max())
    if denom <= 0.0:
        raise ValueError(_ZERO_RATIO)
    return denom


def adversary_value(
    f: PartialBooleanFunction, gamma: np.ndarray, epsilon: float = 0.0
) -> tuple[float, float]:
    """(spectral ratio, error-adjusted query lower bound) for a valid matrix."""
    return _value(f, gamma, epsilon)[:2]


def _value(
    f: PartialBooleanFunction, gamma: np.ndarray, epsilon: float
) -> tuple[float, float, float]:
    """`adversary_value` and the max_i lambda(G_i) it divides by, which
    `_diagnostic` can then reuse instead of recomputing the n restricted norms."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    denom = _restricted_norm(f, gamma)
    raw_ratio = spectral_norm(gamma) / denom
    factor = 1.0 - 2.0 * math.sqrt(epsilon * (1.0 - epsilon))
    return raw_ratio, factor * raw_ratio / 2.0, denom


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
    if not f.ones():
        raise ValueError("function has no 1-input")
    return max(map(len, f._certificates.values()))


def ceiling_check(n: int, k: int, raw_ratio: float) -> tuple[float, bool, float]:
    """(ceiling 2*sqrt(n*k), raw_ratio <= ceiling up to 1e-8, slack ceiling - raw_ratio)."""
    ceiling = 2.0 * math.sqrt(n * k)
    return ceiling, raw_ratio <= ceiling + 1e-8, ceiling - raw_ratio


def random_valid_gamma(f: PartialBooleanFunction, rng: np.random.Generator) -> np.ndarray:
    """Uniform entries on the allowed zero pattern, symmetrized."""
    d = f.size
    vals = np.asarray(f.values)
    allowed = vals[:, None] != vals[None, :]
    upper = np.triu(rng.random((d, d)), 1)
    upper[~allowed] = 0.0
    return upper + upper.T


def decomposition_diagnostic(f: PartialBooleanFunction, gamma: np.ndarray) -> dict:
    """Numerically verify the vector decomposition behind the certificate ceiling.

    Builds the top eigenvector v, the per-position restrictions v_i supported
    on 1-inputs whose minimal certificate uses that position, and checks:
    the inner-product identity <v_i, v> = <v_i, v_i>, the entrywise bound
    sum_i v_i <= k*v, the pairing sum_i v_i^T G_i v >= lambda/2, and the norm
    chain ratio <= 2*sum|v_i| with sum|v_i| <= sqrt(n*k), each to within 1e-9.
    Reducible matrices may give v zero entries; the checks then apply on the
    support.
    """
    return _diagnostic(f, gamma, _restricted_norm(f, gamma))


def _diagnostic(f: PartialBooleanFunction, gamma: np.ndarray, denom: float) -> dict:
    """`decomposition_diagnostic` of a valid matrix whose max_i lambda(G_i) is `denom`."""
    tol = 1e-9
    w, vecs = np.linalg.eigh(gamma)
    lam = float(w[-1])
    # A nonnegative matrix's top eigenspace is spanned by the Perron vectors of
    # its irreducible blocks, which are nonnegative with disjoint supports, so
    # taking absolute values keeps a unit top eigenvector.
    v = np.abs(vecs[:, -1])
    certs = f._certificates
    k = max(map(len, certs.values()), default=0)

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
    ratio = lam / denom

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
