"""Calibration runs: measure compiled kernels, fit correction factors.

:func:`run_calibration` drives one compiled
:class:`~repro.inference.Executable` the way the serving hot path does
— every bound core/conv kernel executes through
``ConvKernel.run_into`` against the executable's own arena buffers
(warmup + best-of-k, mirroring ``Executable.measure``) — and pairs each
measurement with the analytical latency its plan recorded.  The
resulting :class:`CalibrationRun` fits:

- one :class:`~repro.calibration.model.CalibrationFactor` per
  (backend, shape class) over the per-site core samples, and
- one shared auxiliary factor (stored under ``__aux__``) from the
  whole-run wall time minus the core time, covering the plan's
  non-core kinds (pointwise projections, and the module topology the
  plan does not itemize).

:func:`store_calibration` persists the fits into the versioned
``calibration`` plan cache; :func:`calibrate_executable` is the
one-call front door (run → store → :class:`CalibratedDevice`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.calibration.model import (
    AUX_BACKEND,
    AUX_CLASS,
    CalibratedDevice,
    CalibrationFactor,
    store_factor,
)
from repro.backends import DEPTHWISE_BASELINE
from repro.inference.executable import (
    CompiledChainConv2d,
    CompiledConv2d,
    CompiledFusedSite,
    Executable,
)
from repro.kernels.base import ConvShape
from repro.perfmodel.analytical import shape_class
from repro.planning.cache import PlanCache

#: Plan kinds attributed to a measured core/conv kernel; everything
#: else in a plan is auxiliary and calibrates through the shared
#: ``__aux__`` factor.
CORE_KINDS = ("core", "conv")


@dataclass(frozen=True)
class SiteSample:
    """One measured kernel site: analytical vs wall seconds."""

    site: str            # dotted module name of the compiled site
    backend: str         # registered backend that planned the kernel
    shape: ConvShape     # the plan-time core shape (output extent)
    shape_class: str
    predicted_s: float   # raw analytical latency (corrections inverted)
    measured_s: float    # best-of-k run_into wall seconds

    @property
    def ratio(self) -> float:
        return self.measured_s / self.predicted_s


@dataclass
class CalibrationRun:
    """All measurements of one calibration pass over one executable."""

    model_name: str
    device_name: str
    device_fingerprint: str
    warmup: int
    repeats: int
    samples: List[SiteSample] = field(default_factory=list)
    total_predicted_s: float = 0.0   # plan total (raw analytical)
    core_predicted_s: float = 0.0    # plan total over CORE_KINDS
    total_measured_s: float = 0.0    # whole Executable.run wall time
    core_measured_s: float = 0.0     # summed per-site wall time

    @property
    def aux_predicted_s(self) -> float:
        return self.total_predicted_s - self.core_predicted_s

    @property
    def aux_measured_s(self) -> float:
        """Wall time the plan's core kernels do not account for.

        Clamped away from zero: on a pathological run where the summed
        per-site times exceed the whole-run time (timer noise on very
        small models), the auxiliary factor degrades to "negligible"
        instead of producing a non-positive fit.
        """
        leftover = self.total_measured_s - self.core_measured_s
        return max(leftover, 1e-9)

    def site_factors(self) -> Dict[Tuple[str, str], CalibrationFactor]:
        """Fits grouped by (backend, shape class), ratio of sums."""
        grouped: Dict[Tuple[str, str], List[SiteSample]] = {}
        for sample in self.samples:
            grouped.setdefault(
                (sample.backend, sample.shape_class), []
            ).append(sample)
        return {
            key: CalibrationFactor.from_sums(
                sum(s.predicted_s for s in samples),
                sum(s.measured_s for s in samples),
                len(samples),
            )
            for key, samples in grouped.items()
        }

    def aux_factor(self) -> Optional[CalibrationFactor]:
        """The shared auxiliary fit (None when the plan has no aux)."""
        if self.aux_predicted_s <= 0:
            return None
        return CalibrationFactor.from_sums(
            self.aux_predicted_s, self.aux_measured_s, 1
        )

    def factors(self) -> Dict[Tuple[str, str], CalibrationFactor]:
        """Every fit of this run, aux included, keyed like the cache."""
        out = self.site_factors()
        aux = self.aux_factor()
        if aux is not None:
            out[(AUX_BACKEND, AUX_CLASS)] = aux
        return out


def _best_of(fn, warmup: int, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds of ``fn()`` after warmup."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _is_tucker_chain(site) -> bool:
    """A per-stage Tucker site: its dense core is a planned ``core``
    kernel (CP/TT depthwise middles plan as aux ``dwcore``)."""
    return isinstance(site, CompiledChainConv2d) and site.format == "tucker"


def _site_shape(site) -> Optional[ConvShape]:
    """The plan-time core shape of one compiled site (output extent)."""
    if isinstance(site, CompiledFusedSite):
        return site.core_shape
    if _is_tucker_chain(site):
        d2, d1, r, s = site.mid_weight.shape
        _, _, oh, ow = site.z2.shape
        return ConvShape(c=d1, n=d2, h=oh, w=ow, r=r, s=s)
    if isinstance(site, CompiledConv2d) and site.kernel is not None:
        n, c, r, s = site.weight.shape
        _, _, oh, ow = site.out.shape
        return ConvShape(c=c, n=n, h=oh, w=ow, r=r, s=s)
    return None  # pointwise dense site: executes as a GEMM, no kernel


def _raw_kernel_latency(kernel, shape: Optional[ConvShape], device) -> float:
    """The *raw analytical* latency behind one planned kernel.

    An executable compiled from a :class:`CalibratedDevice` records
    already-corrected latencies on its plan; fitting new factors
    against those would divide the previous correction back out
    (measured / (raw * f1) ≈ 1), so a second recalibration would
    collapse predictions to raw and the replan loop would oscillate
    instead of converging.  The wrapper's lookups are deterministic in
    (backend, shape class), so dividing the recorded latency by the
    same correction the planner multiplied in recovers the raw value
    exactly.  Plain specs carry no corrections: identity.
    """
    registry_priced = kernel.kind in CORE_KINDS or (
        # A dwcore won by a registry backend was priced through
        # ``calibrated_dwcore_latency`` (a per-backend correction);
        # only the depthwise baseline goes through the aux factor.
        kernel.kind == "dwcore"
        and kernel.backend not in (None, DEPTHWISE_BASELINE)
    )
    if registry_priced:
        correction = getattr(device, "correction_for", None)
        if correction is None or shape is None:
            return kernel.latency
        return kernel.latency / correction(kernel.backend or "cudnn", shape)
    correction = getattr(device, "aux_correction", None)
    if correction is None:
        return kernel.latency
    return kernel.latency / correction(kernel.kind)


def _site_runner(site):
    """A zero-argument closure executing the site's bound kernel once,
    through the same arena buffers the serving hot path uses."""
    if _is_tucker_chain(site):
        return lambda: site.kernel.run_into(
            site.z1pad[0], site.mid_weight, site.ysame[0], site.scratch
        )
    return lambda: site.kernel.run_into(
        site.xpad[0], site.weight, site.ysame[0], site.scratch
    )


def run_calibration(
    executable: Executable,
    *,
    warmup: int = 2,
    repeats: int = 5,
    seed: int = 0,
) -> CalibrationRun:
    """Measure one executable per site and end to end.

    Not thread-safe with respect to the executable (one arena, one
    runner) — callers serving live traffic must pause the worker first
    (:meth:`repro.serving.InferenceSession.paused` does exactly that).
    """
    plan = executable.plan
    device = executable.device
    planned = {k.layer: k for k in plan.kernels}
    # Plan-layer -> core shape, for inverting any correction already
    # baked into a calibrated plan's recorded latencies.
    core_shapes: Dict[str, ConvShape] = {}
    # Layers belonging to a fused whole-chain site: the chain's wall
    # time is measured as one sample, so every stage of it (pw1, core,
    # pw2) must be attributed to the core bucket — otherwise the
    # intermediate stages would be double-counted into ``__aux__``.
    fused_layers = set()
    for site in executable.sites():
        shape = _site_shape(site)
        if shape is None:
            continue
        if isinstance(site, CompiledFusedSite) or _is_tucker_chain(site):
            core_shapes[f"{site.site_name}.core"] = shape
        else:
            core_shapes[site.site_name] = shape
        if isinstance(site, CompiledFusedSite):
            fused_layers.update(
                f"{site.site_name}{sfx}" for sfx in (".pw1", ".core", ".pw2")
            )
    raw_total = 0.0
    raw_core = 0.0
    for kernel in plan.kernels:
        raw = _raw_kernel_latency(kernel, core_shapes.get(kernel.layer), device)
        raw_total += raw
        if kernel.kind in CORE_KINDS or kernel.layer in fused_layers:
            raw_core += raw
    run = CalibrationRun(
        model_name=executable.model_name,
        device_name=device.name,
        device_fingerprint=device.fingerprint(),
        warmup=warmup,
        repeats=repeats,
        total_predicted_s=raw_total,
        core_predicted_s=raw_core,
    )
    for site in executable.sites():
        shape = _site_shape(site)
        if shape is None:
            continue
        if isinstance(site, CompiledFusedSite):
            # The fused chain has no per-stage kernel to time in
            # isolation: measure the whole pw1+core+pw2 forward against
            # the summed raw predictions of its plan entries.  The
            # sample lands under ("fused", shape class), giving the
            # fused backend its own calibration entries.
            predicted = sum(
                _raw_kernel_latency(planned[layer], shape, device)
                for layer in (
                    f"{site.site_name}{sfx}"
                    for sfx in (".pw1", ".core", ".pw2")
                )
                if layer in planned
            )
            dummy = np.zeros(
                (1,) + site.input_shape, dtype=executable.dtype
            )
            measured = _best_of(
                lambda s=site, d=dummy: s.forward(d), warmup, repeats
            )
            run.samples.append(
                SiteSample(
                    site=site.site_name,
                    backend="fused",
                    shape=shape,
                    shape_class=shape_class(shape),
                    predicted_s=predicted,
                    measured_s=measured,
                )
            )
            continue
        if _is_tucker_chain(site):
            kernel = planned.get(f"{site.site_name}.core")
        else:
            kernel = planned.get(site.site_name)
        if kernel is None or kernel.kind not in CORE_KINDS:
            continue
        measured = _best_of(_site_runner(site), warmup, repeats)
        run.samples.append(
            SiteSample(
                site=site.site_name,
                backend=kernel.backend or "cudnn",
                shape=shape,
                shape_class=shape_class(shape),
                predicted_s=_raw_kernel_latency(kernel, shape, device),
                measured_s=measured,
            )
        )
    run.core_measured_s = sum(s.measured_s for s in run.samples)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (1,) + executable.input_shape
    ).astype(executable.dtype)
    run.total_measured_s = executable.measure(
        x, repeats=repeats, warmup=warmup
    )
    return run


def store_calibration(
    run: CalibrationRun,
    cache: Optional[PlanCache] = None,
    merge: bool = True,
) -> int:
    """Persist a run's fits into the calibration cache.

    Returns the number of (backend, shape class) entries written.  With
    ``merge=True`` (default) a pre-existing fit for the same key is
    combined by summing observations; ``merge=False`` overwrites —
    what :meth:`~repro.serving.SessionRegistry.recalibrate` wants, so
    drift tracks the *current* hardware behavior, not its history.
    """
    written = 0
    for (backend, cls), factor in run.factors().items():
        store_factor(
            run.device_fingerprint, backend, cls, factor,
            cache=cache, merge=merge,
        )
        written += 1
    return written


def calibrate_executable(
    executable: Executable,
    *,
    warmup: int = 2,
    repeats: int = 5,
    cache: Optional[PlanCache] = None,
    merge: bool = True,
) -> CalibratedDevice:
    """Run + store + wrap: the one-call calibration front door."""
    run = run_calibration(executable, warmup=warmup, repeats=repeats)
    store_calibration(run, cache=cache, merge=merge)
    return CalibratedDevice.from_cache(executable.device, cache=cache)
