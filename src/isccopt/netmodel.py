"""Layered network model: FLOP counts, forward passes, magnitude pruning,
and the weight-derived quantities used by the accuracy bounds.

Layers are 1-indexed throughout (layer 0 means "the raw input").
Convolution weights are stored as flattened 2-D matrices
(LayerSpec.weight_shape); they are used only for norms and pruning
statistics. Forward passes are supported for fully-connected chains
(bias-free, ReLU between layers, none after the last), which is the setting
in which the pruning error bound is validated. Pruning returns another
NetworkModel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

CONV = "conv"
MP = "mp"
FC = "fc"


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network.

    conv: alpha x beta x gamma output map, psi x psi filters, gamma_prev input
    channels. mp: pooling over psi x psi windows, alpha x beta x gamma output.
    fc: n outputs from n_prev inputs. `weights` is optional; max-pooling
    layers never carry weights. A weighted layer stores ||W||_F, ||W||_F^2
    and the magnitude rate M / sum|w| (None for an all-zero layer) once, as
    `fro_norm`, `fro_sq` and `laplace_rate`.
    """

    kind: str
    alpha: int = 0
    beta: int = 0
    gamma: int = 0
    psi: int = 0
    gamma_prev: int = 0
    n: int = 0
    n_prev: int = 0
    weights: np.ndarray | None = field(default=None, repr=False)
    fro_norm: float | None = field(default=None, init=False, repr=False, compare=False)
    fro_sq: float | None = field(default=None, init=False, repr=False, compare=False)
    laplace_rate: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (CONV, MP, FC):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == CONV:
            dims = (self.alpha, self.beta, self.gamma, self.psi, self.gamma_prev)
        elif self.kind == MP:
            dims = (self.alpha, self.beta, self.gamma, self.psi)
        else:
            dims = (self.n, self.n_prev)
        if any(d < 1 for d in dims):
            raise ValueError(f"{self.kind} layer dimensions must be >= 1, got {dims}")
        if self.weights is not None:
            if self.kind == MP:
                raise ValueError("max-pooling layers carry no weights")
            w = np.asarray(self.weights, dtype=float)
            if w.size != self.weight_count:
                raise ValueError(
                    f"weight count {w.size} does not match layer size {self.weight_count}"
                )
            object.__setattr__(self, "weights", w)
            # config._check_weights rejects weights whose norms overflow
            with np.errstate(over="ignore"):
                total = float(np.sum(np.abs(w)))
                object.__setattr__(self, "fro_norm", float(np.linalg.norm(w)))
                object.__setattr__(self, "fro_sq", float(np.sum(w**2)))
            object.__setattr__(self, "laplace_rate",
                               self.weight_count / total if total else None)

    def __eq__(self, other):
        """Equal kind and dimensions, and equal weight arrays (or none)."""
        if not isinstance(other, LayerSpec):
            return NotImplemented
        dims = ("kind", "alpha", "beta", "gamma", "psi", "gamma_prev", "n", "n_prev")
        if any(getattr(self, d) != getattr(other, d) for d in dims):
            return False
        if self.weights is None or other.weights is None:
            return self.weights is other.weights
        return bool(np.array_equal(self.weights, other.weights))

    @property
    def weight_shape(self) -> tuple[int, int]:
        """Shape of the weight matrix: (n, n_prev) for fc, (gamma,
        gamma_prev*psi^2) for conv (one flattened filter per row), and
        (0, 0) for max-pooling."""
        if self.kind == FC:
            return self.n, self.n_prev
        if self.kind == CONV:
            return self.gamma, self.gamma_prev * self.psi**2
        return 0, 0

    @property
    def weight_count(self) -> int:
        """Number of parameters implied by the layer dimensions."""
        rows, cols = self.weight_shape
        return rows * cols

    @property
    def out_dim(self) -> int:
        """Output feature size of this layer."""
        if self.kind == FC:
            return self.n
        return self.alpha * self.beta * self.gamma

    @property
    def is_weighted(self) -> bool:
        return self.kind != MP


def conv(alpha, beta, gamma, psi, gamma_prev, weights=None) -> LayerSpec:
    return LayerSpec(CONV, alpha=alpha, beta=beta, gamma=gamma, psi=psi,
                     gamma_prev=gamma_prev, weights=weights)


def maxpool(alpha, beta, gamma, psi) -> LayerSpec:
    return LayerSpec(MP, alpha=alpha, beta=beta, gamma=gamma, psi=psi)


def fc(n, n_prev, weights=None) -> LayerSpec:
    return LayerSpec(FC, n=n, n_prev=n_prev, weights=weights)


class FlopPieces(NamedTuple):
    """The clamped FLOP count of layers 1..l as a piecewise-affine function
    of rho: `points` are the ascending clamp points -intercept/slope of the
    layers with a slope, and on piece j (the rho with exactly j points
    below them) the count is slopes[j]*rho + intercepts[j], the sums over
    the max-pooling layers and the layers whose clamp point lies below rho.
    """

    points: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def at(self, rho: float) -> tuple[float, float]:
        """The count at rho in (0, 1] (not checked) and its slope there,
        from one bisect. At a clamp point the slope is the piece's below
        it: the count is convex, so either piece's slope is a subgradient."""
        j = bisect_left(self.points, rho)
        slope = self.slopes[j]
        return slope * rho + self.intercepts[j], slope


def _flop_pieces(layers) -> FlopPieces:
    """FlopPieces of `layers`. Slopes and intercepts are whole numbers, so
    every sum in the table is exact while the FLOPs stay below 2**53."""
    affine = [flops_affine(layer) for layer in layers]
    slope = 0.0
    intercept = sum((c for s, c in affine if s == 0.0), 0.0)
    active = sorted((-c / s, s, c) for s, c in affine if s != 0.0)
    slopes, intercepts = [slope], [intercept]
    for _, s, c in active:
        slope += s
        intercept += c
        slopes.append(slope)
        intercepts.append(intercept)
    return FlopPieces(tuple(t for t, _, _ in active), tuple(slopes), tuple(intercepts))


@dataclass(frozen=True)
class NetworkModel:
    """Ordered layer stack with its input size.

    `flop_table[l]` holds the FlopPieces of layers 1..l for every split l in
    0..L; cum_flops and max_rho read it. `penalty_table[l]` holds
    (pruning_penalty_coeff, tail_norm_product) of split l, or None where
    either raises (a layer without weights, an all-zero layer, or norms
    that overflow); optimizer.penalty_terms reads it. Both are built here,
    so `replace` and `with_weights` rebuild them, and they take no part in
    equality or repr.
    """

    layers: tuple[LayerSpec, ...]
    input_dim: int
    flop_table: tuple[FlopPieces, ...] = field(init=False, repr=False, compare=False)
    penalty_table: tuple[tuple[float, float] | None, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        self._check_chain()
        object.__setattr__(self, "flop_table", tuple(
            _flop_pieces(layers[:l]) for l in range(len(layers) + 1)))
        object.__setattr__(self, "penalty_table", tuple(
            _split_penalty(self, l) for l in range(len(layers) + 1)))

    def _check_chain(self):
        prev_dim = self.input_dim
        prev_channels = None
        for i, layer in enumerate(self.layers, start=1):
            if layer.kind == FC:
                if layer.n_prev != prev_dim:
                    raise ValueError(
                        f"layer {i}: n_prev={layer.n_prev} does not chain with "
                        f"previous feature size {prev_dim}"
                    )
            elif prev_channels is not None:
                chan_in = layer.gamma_prev if layer.kind == CONV else layer.gamma
                if chan_in != prev_channels:
                    raise ValueError(
                        f"layer {i}: input channels {chan_in} do not chain with "
                        f"previous channels {prev_channels}"
                    )
            prev_dim = layer.out_dim
            prev_channels = layer.gamma if layer.kind != FC else None

    @property
    def depth(self) -> int:
        return len(self.layers)

    def layer(self, l: int) -> LayerSpec:
        """1-indexed layer access."""
        if not 1 <= l <= self.depth:
            raise IndexError(f"layer index {l} outside 1..{self.depth}")
        return self.layers[l - 1]

    def with_weights(self, weights: list[np.ndarray]) -> "NetworkModel":
        """Attach one weight array per weighted layer (in layer order)."""
        mats = list(weights)
        n_weighted = sum(layer.is_weighted for layer in self.layers)
        if len(mats) != n_weighted:
            raise ValueError(f"{len(mats)} weight arrays for {n_weighted} weighted layers")
        it = iter(mats)
        return replace(self, layers=tuple(
            replace(layer, weights=next(it)) if layer.is_weighted else layer
            for layer in self.layers))


def flops_affine(layer: LayerSpec) -> tuple[float, float]:
    """(slope, intercept) of the exact affine-in-rho FLOP count."""
    if layer.kind == CONV:
        area = layer.alpha * layer.beta * layer.gamma
        return 2.0 * layer.gamma_prev * layer.psi**2 * area, -float(area)
    if layer.kind == FC:
        return 2.0 * layer.n_prev * layer.n, -float(layer.n)
    return 0.0, float(layer.alpha * layer.beta * layer.gamma * layer.psi**2)


def cum_flops(net: NetworkModel, l_from: int, l_to: int, rho: float = 1.0) -> float:
    """Sum of per-layer FLOPs over the inclusive range l_from..l_to.

    An empty range (l_from > l_to) is allowed and returns 0, so callers can
    write cum_flops(net, l+1, L) for l = L. The count is read from
    `net.flop_table`: one piece lookup per prefix, and a range starting
    above layer 1 takes the difference of two prefixes' (slope, intercept).
    Those are sums of whole numbers, so the difference is the exact sum
    over the range's unclamped layers: the count is exact at rho = 1 and 0
    where every layer of the range clamps. It is never negative: no float
    rho lies between a clamp point and its rounding, so every layer counted
    has slope*rho + intercept > 0 exactly. Their sums then satisfy
    slope*rho > -intercept, and rounding cannot take the product below
    that whole number.
    """
    if l_from > l_to:
        return 0.0
    table = net.flop_table
    if not (1 <= l_from and l_to < len(table)):
        raise IndexError(f"range {l_from}..{l_to} outside 1..{net.depth}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if l_from == 1:
        return table[l_to].at(rho)[0]
    points, slopes, intercepts = table[l_to]
    j = bisect_left(points, rho)
    slope, intercept = slopes[j], intercepts[j]
    points, slopes, intercepts = table[l_from - 1]
    j = bisect_left(points, rho)
    return (slope - slopes[j]) * rho + (intercept - intercepts[j])


def max_rho(net: NetworkModel, l: int, cap: float) -> float:
    """Largest rho in (0, 1] with cum_flops(net, 1, l, rho) <= cap, or 0.0
    when there is none.

    cum_flops is continuous, nondecreasing and affine on each piece of
    `net.flop_table[l]`. The walk starts on the piece that holds rho = 1 and
    solves the affine equation there; a root below the piece's lowest clamp
    point moves one piece down, where the layers that clamp at that point
    contribute nothing. The lowest piece has only max-pooling layers, whose
    FLOPs do not depend on rho.
    """
    if not 0 <= l <= net.depth:
        raise IndexError(f"split {l} outside 0..{net.depth}")
    if cap < 0.0:   # FLOP counts are never negative
        return 0.0
    points, slopes, intercepts = net.flop_table[l]
    hi = 1.0
    for j in range(bisect_left(points, hi), 0, -1):
        rho = (cap - intercepts[j]) / slopes[j]
        if rho >= points[j - 1]:
            rho = min(rho, hi)
            # cap - intercept cancels near a clamp point, where the rounded
            # root can count above the cap: step down to one that does not
            while rho > points[j - 1] and slopes[j] * rho + intercepts[j] > cap:
                rho = math.nextafter(rho, 0.0)
            return rho
        hi = points[j - 1]
    return hi if intercepts[0] <= cap else 0.0


def feature_dim(net: NetworkModel, l: int) -> int:
    """Output feature size after layer l; l=0 returns the input size."""
    if l == 0:
        return net.input_dim
    return net.layer(l).out_dim


def upload_dim(net: NetworkModel, l: int) -> int:
    """Number of features a split after layer l uploads: none after the
    last layer (fully on-device inference), else feature_dim(l)."""
    return 0 if l == net.depth else feature_dim(net, l)


def _weight_chain(net, l):
    """Weight matrices of the weighted layers among 1..l."""
    mats = []
    for i in range(1, l + 1):
        layer = net.layer(i)
        if not layer.is_weighted:
            continue
        if layer.weights is None:
            raise ValueError(f"layer {i} has no weight matrix")
        mats.append(layer.weights)
    return mats


def _leave_one_out(entries) -> float:
    """sum_k lead_k * prod_{k'!=k} sq_k' over (lead, sq) pairs."""
    total = 0.0
    for k, (lead, _) in enumerate(entries):
        prod = 1.0
        for k2, (_, sq) in enumerate(entries):
            if k2 != k:
                prod *= sq
        total += lead * prod
    return total


def forward(net: NetworkModel, x: np.ndarray, l: int) -> np.ndarray:
    """Bias-free ReLU chain W_l relu(W_{l-1} relu(... W_1 x)).

    Only fully-connected stacks are supported; ReLU is applied between
    layers but not after layer l. `x` may be a vector or a (dim, batch)
    matrix.
    """
    if any(net.layer(i).kind != FC for i in range(1, l + 1)):
        raise ValueError("forward pass supports fully-connected stacks only")
    out = np.asarray(x, dtype=float)
    for k, w in enumerate(_weight_chain(net, l)):
        if k > 0:
            out = np.maximum(out, 0.0)
        out = w @ out
    return out


def prune(net: NetworkModel, rho: float, l: int) -> NetworkModel:
    """`net` with layers 1..l magnitude-pruned.

    In each weighted layer the floor((1-rho)*M) entries of smallest absolute
    value are zeroed (ties broken by flat index order); survivors keep their
    original values. The layers above l are kept as they are.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    layers = list(net.layers)
    for i in range(1, l + 1):
        layer = net.layer(i)
        if not layer.is_weighted:
            continue
        if layer.weights is None:
            raise ValueError(f"layer {i} has no weight matrix to prune")
        out = layer.weights.copy()
        n_zero = int(np.floor((1.0 - rho) * out.size))
        if n_zero > 0:
            flat = out.reshape(-1)
            order = np.argsort(np.abs(flat), kind="stable")
            flat[order[:n_zero]] = 0.0
        layers[i - 1] = replace(layer, weights=out)
    return replace(net, layers=tuple(layers))


def pruning_error_bound(net: NetworkModel, pruned: NetworkModel, l: int) -> float:
    """Worst-case squared feature error of `pruned` against `net` over
    layers 1..l:

        sum_{k<=l} ||W_k - What_k||_F^2 * prod_{k'!=k, k'<=l} ||W_k'||_F^2

    Valid for unit-norm inputs through the bias-free ReLU chain.
    """
    return _leave_one_out([
        (float(np.sum((w - w_hat) ** 2)), float(np.sum(w * w)))
        for w, w_hat in zip(_weight_chain(net, l), _weight_chain(pruned, l))])


def tail_norm_product(net: NetworkModel, l: int) -> float:
    """Product of Frobenius norms of layers l+1..L (weightless layers
    contribute factor 1); empty product is 1."""
    prod = 1.0
    for i in range(l + 1, net.depth + 1):
        layer = net.layer(i)
        if not layer.is_weighted:
            continue
        if layer.weights is None:
            raise ValueError(f"layer {i} has no weight matrix")
        prod *= layer.fro_norm
    return prod


def prune_factors(layer: LayerSpec) -> tuple[float, float]:
    """(M / lambda^2, ||W||_F^2) of one weighted layer, the two per-layer
    factors of pruning_penalty_coeff. lambda = M / sum(|w|) is the
    maximum-likelihood exponential rate of the |weight| distribution."""
    if layer.weights is None:
        raise ValueError("layer has no weight matrix")
    if layer.laplace_rate is None:
        raise ValueError("all-zero layer: magnitude rate undefined")
    return layer.weight_count / layer.laplace_rate**2, layer.fro_sq


def pruning_penalty_coeff(net: NetworkModel, l: int) -> float:
    """Pruning penalty coefficient of the first l layers:

        sum_{k<=l} (M_k / lambda_k^2) * prod_{k'!=k, k'<=l} ||W_k'||_F^2

    with lambda_k the fitted per-layer magnitude rate.
    """
    return _leave_one_out([prune_factors(layer)
                           for layer in map(net.layer, range(1, l + 1))
                           if layer.is_weighted])


def _split_penalty(net: NetworkModel, l: int) -> tuple[float, float] | None:
    """(pruning_penalty_coeff, tail_norm_product) of split l, or None where
    either raises."""
    try:
        return pruning_penalty_coeff(net, l), tail_norm_product(net, l)
    except (ValueError, ArithmeticError):
        return None


def random_fc_network(dims, rates, rng) -> NetworkModel:
    """Analysis network: fully-connected stack with zero-mean Laplacian
    weights, one rate per layer (|w| ~ Exponential(rate)), drawn as
    generate_weights draws them."""
    dims = list(dims)
    shapes = list(zip(dims[1:], dims[:-1]))
    mats = _laplace_weights(shapes, rates, rng)
    return NetworkModel(layers=tuple(fc(n, n_prev, w) for (n, n_prev), w in zip(shapes, mats)),
                        input_dim=dims[0])


def generate_weights(net: NetworkModel, rates, seed) -> NetworkModel:
    """Attach zero-mean Laplacian weights, one rate per weighted layer,
    drawn in layer order (_laplace_weights)."""
    return net.with_weights(_laplace_weights(
        [layer.weight_shape for layer in net.layers if layer.is_weighted], rates, seed))


def _laplace_weights(shapes, rates, seed) -> list[np.ndarray]:
    """One zero-mean Laplacian matrix per shape, with the matching rate,
    drawn in order from np.random.default_rng(seed) (a Generator as is)."""
    rng = np.random.default_rng(seed)
    rates = list(rates)
    if len(rates) != len(shapes):
        raise ValueError(f"need {len(shapes)} rates, got {len(rates)}")
    return [rng.laplace(0.0, 1.0 / rate, size=shape) for shape, rate in zip(shapes, rates)]


def rates_for_norms(net: NetworkModel, target_norms) -> list[float]:
    """Laplacian rates giving E||W||_F ~= target per weighted layer
    (E[w^2] = 2/rate^2 so rate = sqrt(2 M) / target)."""
    targets = list(target_norms)
    weighted = [layer for layer in net.layers if layer.is_weighted]
    if len(targets) != len(weighted):
        raise ValueError(f"need {len(weighted)} target norms, got {len(targets)}")
    return [float(np.sqrt(2.0 * layer.weight_count) / t)
            for layer, t in zip(weighted, targets)]


def load_weights(net: NetworkModel, path) -> NetworkModel:
    """Load a flat weight file (text numbers, or raw little-endian float64
    for .bin/.raw) holding each weighted layer's matrix row-major, in layer
    order, and attach it to the network."""
    path = str(path)
    if path.endswith((".bin", ".raw")):
        flat = np.fromfile(path, dtype="<f8")
    else:
        flat = np.loadtxt(path).reshape(-1)
    mats = []
    offset = 0
    for layer in net.layers:
        if not layer.is_weighted:
            continue
        count = layer.weight_count
        if offset + count > flat.size:
            raise ValueError("weight file too short for network dimensions")
        mats.append(flat[offset:offset + count].reshape(layer.weight_shape))
        offset += count
    if offset != flat.size:
        raise ValueError("weight file longer than network dimensions")
    return net.with_weights(mats)

