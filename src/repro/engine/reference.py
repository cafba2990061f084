"""Pure-numpy reference execution of a resolved network graph.

This is the ground truth the crossbar engine is validated against: the same
:class:`~repro.engine.params.NetworkParams` pushed through the exact
float kernels of :mod:`repro.nn.functional`, walking the network's
deterministic topological order exactly as the crossbar executor does.
The auxiliary (non-MAC) layers are applied through :func:`apply_aux_layer`
/ :func:`apply_aux_batched`, which the crossbar executor shares, so the two
paths can only differ in the conv/FC dot products — exactly the part the
crossbars replace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.errors import EngineError
from repro.engine.params import NetworkParams
from repro.nn import functional as F
from repro.nn.layers import Conv2D, FullyConnected, Pool2D, _resolve_padding
from repro.nn.network import NETWORK_INPUT, LayerInstance, Network

#: layer kinds the engine (and this reference) can execute
SUPPORTED_KINDS = ("conv", "fc", "pool", "relu", "bn", "flatten", "gap", "add", "concat")


def validate_supported(network: Network) -> None:
    """Reject layers the engine cannot execute, naming the offending layer.

    Graph-structural problems (cycles, dangling producers, merge shape
    mismatches) are caught at :class:`~repro.nn.network.Network`
    construction with :class:`~repro.nn.network.GraphError`; this check
    covers the engine-specific limits on top of a well-formed graph.
    """
    for inst in network:
        if inst.kind not in SUPPORTED_KINDS:
            raise EngineError(
                f"layer {inst.name!r} of kind {inst.kind!r} is not supported by "
                f"the functional engine (supported: {', '.join(SUPPORTED_KINDS)})"
            )
        layer = inst.layer
        if isinstance(layer, Conv2D) and layer.kernel_h != layer.kernel_w:
            raise EngineError(
                f"layer {inst.name!r} has a {layer.kernel_h}x{layer.kernel_w} "
                "kernel; the functional engine (like the im2col reference "
                "kernels) supports square filters only"
            )


def validate_sequential(network: Network) -> None:
    """Assert a network is a plain chain (every layer consumes its predecessor).

    The engine itself executes arbitrary DAGs; this check remains for
    callers that rely on the flat-sequential view (e.g. tests pinning that
    the linear zoo models take the exact chain path).
    """
    validate_supported(network)
    if not network.is_sequential:
        offenders = []
        previous = NETWORK_INPUT
        for inst in network:
            if inst.inputs != (previous,):
                offenders.append(inst.name)
            previous = inst.name
        raise EngineError(
            f"network {network.name!r} is not sequential: layer(s) "
            f"{', '.join(repr(n) for n in offenders)} consume producers other "
            "than their predecessor"
        )
    shape = network.input_shape
    for inst in network:
        if inst.input_shape != shape:
            raise EngineError(
                f"layer {inst.name!r} expects input {inst.input_shape}, but the "
                f"previous layer produces {shape}"
            )
        shape = inst.output_shape


def conv_padding(layer: Conv2D) -> int:
    """Resolve a conv layer's padding spec to a pixel count.

    ``"same"`` resolves to ``(kernel - 1) // 2``; for the even-kernel /
    strided corner cases where that differs from the ceil-based shape
    inference, the executor's output-shape check catches the mismatch.
    """
    if layer.padding == "same":
        return (layer.kernel_h - 1) // 2
    return _resolve_padding(layer.padding, layer.kernel_h)


def apply_aux_batched(
    inst: LayerInstance, inputs: Sequence[np.ndarray], params: NetworkParams
) -> np.ndarray:
    """Batched counterpart of :func:`apply_aux_layer`.

    ``inputs`` holds one ``(N, ...)`` array per producer edge of the node
    (single-input layers receive a one-element list).  Applies the same
    :mod:`repro.nn.functional` kernels over the whole batch at once — image
    ``n``'s slice equals ``apply_aux_layer(inst, [a[n] for a in inputs],
    params)`` exactly (max pooling runs over any leading axes; average
    pooling folds the batch into the channel axis, which the per-channel
    kernel treats identically).  Shared by the crossbar
    executor and the batched float reference, so the two paths can only
    differ in the conv/FC dot products.
    """
    layer = inst.layer
    acts = inputs[0]
    n = acts.shape[0]
    if inst.kind == "relu":
        return F.relu(acts)
    if inst.kind == "pool":
        assert isinstance(layer, Pool2D)
        pad = _resolve_padding(layer.padding, layer.kernel)
        if layer.mode == "max":
            # strided passes over the batch in its own memory order
            return F.max_pool2d(acts, layer.kernel, layer.stride, pad)
        pooled = F.avg_pool2d(
            acts.reshape((-1,) + acts.shape[2:]), layer.kernel, layer.stride, pad
        )
        return pooled.reshape((n, acts.shape[1]) + pooled.shape[1:])
    if inst.kind == "bn":
        p = params[inst.name]
        return acts * p.scale[None, :, None, None] + p.shift[None, :, None, None]
    if inst.kind == "flatten":
        return acts.reshape(n, -1)
    if inst.kind == "gap":
        return acts.reshape(n, acts.shape[1], -1).mean(axis=2)
    if inst.kind == "add":
        out = inputs[0] + inputs[1]
        for extra in inputs[2:]:
            out = out + extra
        return out
    if inst.kind == "concat":
        # batched operands are (N, C, H, W) or (N, features): channels sit
        # on axis 1 either way
        return np.concatenate(inputs, axis=1)
    return np.stack(
        [
            apply_aux_layer(inst, [operand[i] for operand in inputs], params)
            for i in range(n)
        ]
    )


def apply_aux_layer(
    inst: LayerInstance, inputs: Sequence[np.ndarray], params: NetworkParams
) -> np.ndarray:
    """Apply one non-MAC layer to a single image's operand list."""
    layer = inst.layer
    act = inputs[0]
    if inst.kind == "relu":
        return F.relu(act)
    if inst.kind == "pool":
        assert isinstance(layer, Pool2D)
        pad = _resolve_padding(layer.padding, layer.kernel)
        pool = F.max_pool2d if layer.mode == "max" else F.avg_pool2d
        return pool(act, layer.kernel, layer.stride, pad)
    if inst.kind == "bn":
        p = params[inst.name]
        return F.batch_norm(act, p.scale, p.shift)
    if inst.kind == "flatten":
        return act.reshape(-1)
    if inst.kind == "gap":
        return F.global_avg_pool(act)
    if inst.kind == "add":
        out = inputs[0] + inputs[1]
        for extra in inputs[2:]:
            out = out + extra
        return out
    if inst.kind == "concat":
        # single-image operands are (C, H, W) or flat (features,): the
        # channel axis is axis 0 in both layouts
        return np.concatenate(inputs, axis=0)
    raise EngineError(f"layer {inst.name!r} of kind {inst.kind!r} is not an auxiliary layer")


def check_activation_shape(inst: LayerInstance, act: np.ndarray) -> None:
    """Assert an activation matches the instance's resolved output shape."""
    shape = inst.output_shape
    expected = (shape.channels,) if shape.is_flat else (
        shape.channels,
        shape.height,
        shape.width,
    )
    if act.shape != expected:
        raise EngineError(
            f"layer {inst.name!r} produced activation shape {act.shape}, but "
            f"shape inference resolved {expected} (check padding spec)"
        )


def reference_forward_batch(
    network: Network, params: NetworkParams, x: np.ndarray
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Batched :func:`reference_forward`: one float pass over ``(N, C, H, W)``.

    Walks the graph in deterministic topological order and returns the
    ``(N, ...)`` outputs and per-layer activation stacks; image ``n``'s
    slices match ``reference_forward(network, params, x[n])`` (the conv/FC
    matmuls run as stacked GEMMs of exactly the per-image shapes, so any
    difference is at the last-ulp level of the BLAS).  The executor's
    batched validation uses this instead of ``N`` separate Python-loop
    reference forwards — one im2col and one stacked matmul per layer
    instead of ``N`` of each.  Every layer's activations stay resident (the
    executor compares against all of them); throughput runs that need the
    liveness-freed memory profile skip validation instead.
    """
    validate_supported(network)
    acts = np.asarray(x, dtype=float)
    if acts.ndim != 4:
        raise EngineError(
            f"expected a (batch, channels, height, width) batch, got shape {acts.shape}"
        )
    n = acts.shape[0]
    activations: Dict[str, np.ndarray] = {NETWORK_INPUT: acts}
    for inst in network.topological_order():
        layer = inst.layer
        operands: List[np.ndarray] = [activations[src] for src in inst.inputs]
        if isinstance(layer, Conv2D):
            p = params[inst.name]
            pad = conv_padding(layer)
            group_in = layer.in_channels // layer.groups
            group_out = layer.out_channels // layer.groups
            outputs = []
            for g in range(layer.groups):
                x_g = operands[0][:, g * group_in : (g + 1) * group_in]
                cols, out_h, out_w = F.im2col_batch(x_g, layer.kernel_h, layer.stride, pad)
                w_g = p.weights[g * group_out : (g + 1) * group_out]
                outputs.append(cols @ w_g.reshape(group_out, -1).T)  # (N, P, D/g)
            out = np.concatenate(outputs, axis=2)
            if p.bias is not None:
                out = out + p.bias
            out = out.transpose(0, 2, 1).reshape(n, layer.out_channels, out_h, out_w)
        elif isinstance(layer, FullyConnected):
            p = params[inst.name]
            out = operands[0].reshape(n, -1) @ p.weights.T
            if p.bias is not None:
                out = out + p.bias
        else:
            out = apply_aux_batched(inst, operands, params)
        check_activation_shape(inst, out[0])
        activations[inst.name] = out
    del activations[NETWORK_INPUT]
    return activations[network.output.name], activations


def reference_forward(
    network: Network, params: NetworkParams, x: np.ndarray
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Run the float reference, returning the output and per-layer activations."""
    validate_supported(network)
    activations: Dict[str, np.ndarray] = {NETWORK_INPUT: np.asarray(x, dtype=float)}
    for inst in network.topological_order():
        layer = inst.layer
        operands = [activations[src] for src in inst.inputs]
        if isinstance(layer, Conv2D):
            p = params[inst.name]
            act = F.conv2d(
                operands[0],
                p.weights,
                p.bias,
                stride=layer.stride,
                pad=conv_padding(layer),
                groups=layer.groups,
            )
        elif isinstance(layer, FullyConnected):
            p = params[inst.name]
            act = F.fully_connected(operands[0], p.weights, p.bias)
        else:
            act = apply_aux_layer(inst, operands, params)
        check_activation_shape(inst, act)
        activations[inst.name] = act
    del activations[NETWORK_INPUT]
    return activations[network.output.name], activations
