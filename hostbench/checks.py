"""Output checks computed apart from the program under test.

Every formula here is the benchmark's own numpy expression of what a
kernel computes (from the kernel's documented definition), evaluated on
a copy of the inputs taken before the offload.  Tolerances are fixed
from float64 rounding: elementwise kernels agree to the last bits, and
the dot-product/sum kernels may add in another order (``RTOL``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["expected_outputs", "check_outputs", "check_result", "sim_row"]

RTOL = 1e-9
ATOL = 1e-9

#: Busy time and makespan are float sums of the same stage times added in
#: different orders; they may disagree by a few units in the last place.
TIME_RTOL = 1e-12

#: The 13-point star stencil: centre weight, then rings 1..3.
STENCIL_WEIGHTS = (0.5, 0.08, 0.03, 0.014)


def _stencil(u: np.ndarray) -> np.ndarray:
    r = len(STENCIL_WEIGHTS) - 1
    n = u.shape[0]
    out = u.copy()
    inner = (slice(r, n - r), slice(r, n - r))
    acc = STENCIL_WEIGHTS[0] * u[inner]
    for k in range(1, r + 1):
        up = u[r - k : n - r - k, r : n - r]
        down = u[r + k : n - r + k, r : n - r]
        left = u[r : n - r, r - k : n - r - k]
        right = u[r : n - r, r + k : n - r + k]
        acc = acc + STENCIL_WEIGHTS[k] * (up + down + left + right)
    out[inner] = acc
    return out


def _block_sad(f1: np.ndarray, f2: np.ndarray, window: int) -> np.ndarray:
    diff = np.abs(f1 - f2)
    return sliding_window_view(diff, (window, window)).sum(axis=(2, 3))


def expected_outputs(kernel, inputs: dict[str, np.ndarray]) -> dict:
    """Expected output arrays (and ``"reduction"``) for one kernel run."""
    kind = kernel.name.removeprefix("stream-")
    if kind == "axpy":
        return {"y": inputs["y"] + kernel.a * inputs["x"]}
    if kind == "sum":
        return {"reduction": float(inputs["x"].sum())}
    if kind == "matvec":
        return {"y": inputs["A"] @ inputs["x"]}
    if kind == "matmul":
        return {"C": inputs["A"] @ inputs["B"]}
    if kind == "stencil":
        return {"u_out": _stencil(inputs["u_in"])}
    if kind == "bm":
        return {"sad": _block_sad(inputs["frame1"], inputs["frame2"], kernel.window)}
    raise ValueError(f"no independent formula for kernel {kernel.name!r}")


def check_outputs(kernel, expected: dict, reduction) -> str | None:
    """None when the kernel's outputs match ``expected``, else why not."""
    for name, want in expected.items():
        if name == "reduction":
            if reduction is None or not np.isclose(reduction, want, rtol=RTOL, atol=ATOL):
                return f"{kernel.name}: reduction {reduction} != {want}"
            continue
        got = kernel.arrays[name]
        if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            return f"{kernel.name}: array {name!r} differs from the numpy formula"
    return None


def check_result(result, n_iters: int) -> str | None:
    """Iteration conservation, and no device lane outlasting the makespan.

    A double-buffered device overlaps copy-in, compute and copy-out, so
    the *sum* of its stage times (``busy_s``) may exceed the makespan; each
    stage lane on its own, and the device's finish time, may not.
    """
    iters = sum(t.iters for t in result.traces)
    if iters != n_iters:
        return f"{result.kernel_name}/{result.algorithm}: {iters} iterations, expected {n_iters}"
    limit = result.total_time_s * (1.0 + TIME_RTOL)
    for t in result.traces:
        lanes = {
            "finish": t.finish_s,
            "copy-in": t.setup_s + t.sched_s + t.xfer_in_s,
            "compute": t.compute_s,
            "copy-out": t.xfer_out_s,
        }
        for lane, value in lanes.items():
            if value > limit:
                return (
                    f"{result.kernel_name}/{result.algorithm}: device {t.name} "
                    f"{lane} {value!r}s beyond makespan {result.total_time_s!r}s"
                )
    return None


def sim_row(label: str, result) -> tuple:
    """The simulated outcome of one offload, for digests."""
    return (
        label,
        result.total_time_s,
        tuple(t.iters for t in result.traces),
        result.reduction,
        sum(t.chunks for t in result.traces),
    )
