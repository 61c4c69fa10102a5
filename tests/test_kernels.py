"""Tests for all convolution kernel schemes.

Every scheme's functional execution is cross-checked against the
reference convolution over randomized shapes (hypothesis), and each
latency model is probed for the structural properties the paper relies
on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import A100, RTX2080TI
from repro.kernels.base import ConvShape, pad_input, reference_conv
from repro.kernels.cudnn import (
    CuDNNFFTKernel,
    CuDNNGemmKernel,
    CuDNNWinogradKernel,
    GemmConfig,
)
from repro.kernels.pointwise import (
    PointwiseConvKernel,
    batchnorm_relu_latency,
    fc_latency,
    memory_bound_op_latency,
    pointwise_latency,
    pooling_latency,
)
from repro.kernels.tdc_direct import (
    TDCDirectKernel,
    Tiling,
    is_feasible,
    n_blocks,
    regs_per_thread,
    smem_bytes,
)
from repro.kernels.tvm_direct import TVMDirectKernel, TVMTiling


@st.composite
def conv_cases(draw):
    c = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    h = draw(st.integers(3, 12))
    w = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    return c, n, h, w, seed


def random_problem(c, n, h, w, seed, r=3, s=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((c, h, w)), rng.standard_normal((n, c, r, s))


class TestConvShape:
    def test_flops(self):
        shape = ConvShape(64, 32, 56, 56)
        assert shape.flops() == 2 * 56 * 56 * 64 * 32 * 9

    def test_padded_extent(self):
        assert ConvShape(4, 4, 10, 10, r=3, s=3).padded_h == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvShape(0, 4, 8, 8)

    def test_pad_input_roundtrip(self, rng):
        shape = ConvShape(2, 3, 5, 5)
        x = rng.standard_normal((2, 5, 5))
        xp = pad_input(x, shape)
        assert xp.shape == (2, 7, 7)
        np.testing.assert_array_equal(xp[:, 1:6, 1:6], x)

    def test_pad_input_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            pad_input(rng.standard_normal((2, 4, 4)), ConvShape(2, 3, 5, 5))


class TestTDCKernelFunctional:
    @given(conv_cases(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, case, th, tw, tc):
        c, n, h, w, seed = case
        x, weight = random_problem(c, n, h, w, seed)
        y = TDCDirectKernel(Tiling(th, tw, tc)).run(x, weight)
        np.testing.assert_allclose(y, reference_conv(x, weight), atol=1e-9)

    def test_partial_edge_tiles(self, rng):
        """Problem size not divisible by the tile size."""
        x = rng.standard_normal((5, 9, 11))
        w = rng.standard_normal((7, 5, 3, 3))
        y = TDCDirectKernel(Tiling(4, 4, 2)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-9)

    def test_1x1_filter(self, rng):
        x = rng.standard_normal((4, 6, 6))
        w = rng.standard_normal((3, 4, 1, 1))
        y = TDCDirectKernel(Tiling(3, 3, 2)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)

    def test_5x5_filter(self, rng):
        x = rng.standard_normal((3, 8, 8))
        w = rng.standard_normal((2, 3, 5, 5))
        y = TDCDirectKernel(Tiling(4, 4, 3)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-9)


def _spatial_walk(x, weight, tiling):
    """Reference (C, H, W) tile walk of Listing 2: one public einsum
    (no ``optimize``) per tap per (C-tile, H-tile, W-tile) block, each
    block's accumulator added into the output."""
    n, c, r, s = weight.shape
    shape = ConvShape(c=c, n=n, h=x.shape[1], w=x.shape[2], r=r, s=s)
    t = tiling.clipped(shape)
    xpad = pad_input(x, shape)
    out = np.zeros((n, shape.h, shape.w), dtype=x.dtype)
    for c0 in range(0, c, t.tc):
        c1 = min(c0 + t.tc, c)
        for h0 in range(0, shape.h, t.th):
            hsz = min(t.th, shape.h - h0)
            for w0 in range(0, shape.w, t.tw):
                wsz = min(t.tw, shape.w - w0)
                acc = np.zeros((n, hsz, wsz), dtype=x.dtype)
                for i in range(r):
                    for j in range(s):
                        acc += np.einsum(
                            "chw,nc->nhw",
                            xpad[c0:c1, h0 + i:h0 + i + hsz,
                                 w0 + j:w0 + j + wsz],
                            weight[:, c0:c1, i, j],
                        )
                out[:, h0:h0 + hsz, w0:w0 + wsz] += acc
    return out


class TestTDCCTileWalk:
    """``run_into`` walks C-tiles only; spatial tiles change no bits."""

    # (C, N, H, W, tiling): one C-tile (TC >= C); TC not dividing C with
    # ragged H/W tiles (9 = 4+4+1, 11 = 4+4+3); several even C-tiles
    # with single-row tiles; one C channel per tile.
    CASES = [
        (6, 5, 8, 8, Tiling(4, 5, 8)),
        (7, 5, 9, 11, Tiling(4, 4, 3)),
        (16, 12, 10, 7, Tiling(1, 3, 4)),
        (5, 9, 6, 13, Tiling(5, 2, 1)),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c,n,h,w,tiling", CASES)
    def test_bitwise_equal_to_spatial_walk(self, c, n, h, w, tiling, k,
                                           dtype):
        rng = np.random.default_rng(c * 100 + k)
        kernel = TDCDirectKernel(tiling)
        shape = ConvShape(c=c, n=n, h=h, w=w, r=k, s=k)
        scratch = kernel.allocate_scratch(shape, dtype=np.dtype(dtype))
        out = np.zeros((n, h, w), dtype=dtype)
        weight = rng.standard_normal((n, c, k, k)).astype(dtype)
        # Two inputs through one scratch set: the second run must not
        # see the first one's accumulator.
        for _ in range(2):
            x = rng.standard_normal((c, h, w)).astype(dtype)
            y = kernel.run_into(x, weight, out, scratch)
            assert y.dtype == dtype
            np.testing.assert_array_equal(y, _spatial_walk(x, weight, tiling))
            ref = reference_conv(x.astype(np.float64),
                                 weight.astype(np.float64))
            tol = 1e-4 if dtype == np.float32 else 1e-10
            np.testing.assert_allclose(y, ref, rtol=tol, atol=tol)


class TestTDCKernelModel:
    def test_resource_accounting(self):
        shape = ConvShape(64, 32, 56, 56)
        t = Tiling(8, 8, 16)
        assert smem_bytes(t, shape) == 16 * 10 * 10 * 4
        assert regs_per_thread(t, shape) == 64 + 9 + 16
        assert n_blocks(t, shape) == 7 * 7 * 4

    def test_launch_description(self, device):
        shape = ConvShape(64, 32, 28, 28)
        launch = TDCDirectKernel(Tiling(7, 7, 16)).launches(shape, device)[0]
        assert launch.threads_per_block == 32  # one thread per o/p channel
        assert launch.n_blocks == 4 * 4 * 4
        assert launch.syncs_per_block == 1
        assert launch.atomic_conflict_degree == 4  # C / TC

    def test_infeasible_tiling_raises(self):
        shape = ConvShape(64, 32, 56, 56)
        with pytest.raises(ValueError):
            # 16x16 accumulators exceed the register budget.
            TDCDirectKernel(Tiling(16, 16, 64)).launches(shape, A100)

    def test_too_many_output_channels_infeasible(self):
        shape = ConvShape(64, 2048, 14, 14)
        assert not is_feasible(Tiling(4, 4, 8), shape, A100)

    def test_ncrs_layout_inflates_traffic(self, device):
        shape = ConvShape(64, 32, 28, 28)
        t = Tiling(7, 7, 16)
        crsn = TDCDirectKernel(t, crsn_layout=True).launches(shape, device)[0]
        ncrs = TDCDirectKernel(t, crsn_layout=False).launches(shape, device)[0]
        assert ncrs.read_bytes > 2 * crsn.read_bytes

    def test_ncrs_layout_slower_when_memory_bound(self, device):
        # Large spatial extent -> the kernel-tensor volume (Eq. 16)
        # dominates, so the uncoalesced layout shows up in latency.
        shape = ConvShape(64, 32, 224, 224)
        t = Tiling(7, 7, 16)
        crsn = TDCDirectKernel(t, crsn_layout=True).latency(shape, device)
        ncrs = TDCDirectKernel(t, crsn_layout=False).latency(shape, device)
        assert ncrs > crsn

    def test_latency_positive(self, device):
        shape = ConvShape(32, 32, 14, 14)
        assert TDCDirectKernel(Tiling(7, 7, 8)).latency(shape, device) > 0


class TestTVMKernel:
    @given(conv_cases(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, case, th, tw, tn):
        c, n, h, w, seed = case
        x, weight = random_problem(c, n, h, w, seed)
        y = TVMDirectKernel(TVMTiling(th, tw, tn)).run(x, weight)
        np.testing.assert_allclose(y, reference_conv(x, weight), atol=1e-9)

    def test_sync_count_scales_with_c(self, device):
        l1 = TVMDirectKernel(TVMTiling(8, 8, 8)).launches(
            ConvShape(32, 32, 16, 16), device
        )[0]
        l2 = TVMDirectKernel(TVMTiling(8, 8, 8)).launches(
            ConvShape(128, 32, 16, 16), device
        )[0]
        assert l2.syncs_per_block == 4 * l1.syncs_per_block

    def test_no_c_split(self, device):
        """Grid never splits C — the limitation the paper identifies."""
        launch = TVMDirectKernel(TVMTiling(8, 8, 8)).launches(
            ConvShape(256, 32, 16, 16), device
        )[0]
        assert launch.n_blocks == 2 * 2 * 4  # (H/8)(W/8)(N/8), no C term

    def test_tuned_picks_feasible(self, device):
        shape = ConvShape(64, 32, 28, 28)
        kernel = TVMDirectKernel.tuned(shape, device)
        assert kernel.latency(shape, device) > 0

    def test_tuned_beats_bad_tiling(self, device):
        shape = ConvShape(64, 32, 28, 28)
        tuned = TVMDirectKernel.tuned(shape, device).latency(shape, device)
        bad = TVMDirectKernel(TVMTiling(1, 1, 1)).latency(shape, device)
        assert tuned <= bad


class TestCuDNNKernels:
    @given(conv_cases())
    @settings(max_examples=25, deadline=None)
    def test_gemm_matches_reference(self, case):
        c, n, h, w, seed = case
        x, weight = random_problem(c, n, h, w, seed)
        y = CuDNNGemmKernel().run(x, weight)
        np.testing.assert_allclose(y, reference_conv(x, weight), atol=1e-9)

    @given(conv_cases())
    @settings(max_examples=25, deadline=None)
    def test_winograd_matches_reference(self, case):
        c, n, h, w, seed = case
        x, weight = random_problem(c, n, h, w, seed)
        y = CuDNNWinogradKernel().run(x, weight)
        np.testing.assert_allclose(y, reference_conv(x, weight), atol=1e-8)

    @given(conv_cases())
    @settings(max_examples=25, deadline=None)
    def test_fft_matches_reference(self, case):
        c, n, h, w, seed = case
        x, weight = random_problem(c, n, h, w, seed)
        y = CuDNNFFTKernel().run(x, weight)
        np.testing.assert_allclose(y, reference_conv(x, weight), atol=1e-8)

    def test_winograd_rejects_non_3x3(self, device):
        with pytest.raises(ValueError):
            CuDNNWinogradKernel().launches(
                ConvShape(8, 8, 8, 8, r=5, s=5), device
            )

    def test_gemm_tile_quantization(self, device):
        """N=129 pads to two column tiles: double the blocks and
        padded FLOPs of N<=128 (the under-utilization mechanism)."""
        cfg = GemmConfig(128, 128, 256)
        base = CuDNNGemmKernel(cfg).launches(ConvShape(64, 64, 56, 56), device)[0]
        spill = CuDNNGemmKernel(cfg).launches(ConvShape(64, 129, 56, 56), device)[0]
        assert spill.n_blocks == 2 * base.n_blocks
        # Padded tile work is identical per block despite 2x outputs.
        assert spill.flops_per_block == base.flops_per_block

    def test_fft_dominated_by_filter_tensor_on_large_images(self, device):
        small = CuDNNFFTKernel().latency(ConvShape(64, 32, 14, 14), device)
        large = CuDNNFFTKernel().latency(ConvShape(64, 32, 224, 224), device)
        assert large > 50 * small

    def test_winograd_stage_count(self, device):
        launches = CuDNNWinogradKernel().launches(
            ConvShape(32, 32, 28, 28), device
        )
        assert len(launches) == 4  # filter, input, gemm, output


class TestPointwiseAndAux:
    @given(conv_cases())
    @settings(max_examples=20, deadline=None)
    def test_pointwise_matches_reference(self, case):
        c, n, h, w, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, h, w))
        weight = rng.standard_normal((n, c, 1, 1))
        y = PointwiseConvKernel().run(x, weight)
        np.testing.assert_allclose(y, reference_conv(x, weight), atol=1e-10)

    def test_pointwise_rejects_3x3(self, device):
        with pytest.raises(ValueError):
            PointwiseConvKernel().launches(ConvShape(4, 4, 8, 8), device)

    def test_pointwise_latency_positive(self, device):
        assert pointwise_latency(64, 32, 56, 56, device) > 0

    def test_memory_bound_op(self, device):
        lat = memory_bound_op_latency(1e6, 1e6, device)
        assert lat > 2e6 / device.dram_bandwidth

    def test_memory_bound_validation(self, device):
        with pytest.raises(ValueError):
            memory_bound_op_latency(-1, 0, device)

    def test_pooling_latency(self, device):
        assert pooling_latency(64, 56, 56, 2, 2, device) > 0

    def test_bn_relu_latency_scales(self, device):
        small = batchnorm_relu_latency(16, 14, 14, device)
        big = batchnorm_relu_latency(512, 56, 56, device)
        assert big > small

    def test_fc_latency(self, device):
        assert fc_latency(512, 1000, device) > 0


class TestPaperStructuralClaims:
    """The headline kernel-level behaviours of Figs. 6/7."""

    def test_tdc_wins_small_shapes(self, device):
        from repro.perfmodel.tiling import select_tiling

        for (c, n, h, w) in [(64, 32, 14, 14), (96, 64, 7, 7), (32, 32, 28, 28)]:
            shape = ConvShape(c, n, h, w)
            tdc = select_tiling(shape, device, "oracle").simulated_latency
            tvm = TVMDirectKernel.tuned(shape, device).latency(shape, device)
            gemm = CuDNNGemmKernel().latency(shape, device)
            assert tdc < tvm
            assert tdc < gemm

    def test_tvm_wins_vgg_scale_shapes(self, device):
        """The paper's observed crossover on (64,32,224,224)."""
        from repro.perfmodel.tiling import select_tiling

        shape = ConvShape(64, 32, 224, 224)
        tdc = select_tiling(shape, device, "oracle").simulated_latency
        tvm = TVMDirectKernel.tuned(shape, device).latency(shape, device)
        assert tvm < tdc

    def test_fft_slowest_on_average(self, device):
        from repro.models.arch_specs import PAPER_CONV_SHAPES

        worst_count = 0
        for (c, n, h, w) in PAPER_CONV_SHAPES[:8]:
            shape = ConvShape(c, n, h, w)
            fft = CuDNNFFTKernel().latency(shape, device)
            others = [
                CuDNNGemmKernel().latency(shape, device),
                CuDNNWinogradKernel().latency(shape, device),
            ]
            if fft >= max(others):
                worst_count += 1
        assert worst_count >= 5


class TestAsymmetricFilters:
    """Edge cases: even and rectangular filters through pad_input and
    the direct schemes (asymmetric same-padding path)."""

    def test_even_filter_pad_asymmetric(self, rng):
        shape = ConvShape(2, 3, 6, 6, r=2, s=2)
        x = rng.standard_normal((2, 6, 6))
        xp = pad_input(x, shape)
        assert xp.shape == (2, 7, 7)
        # Even filters pad only on the bottom/right.
        assert np.all(xp[:, -1, :] == 0) and np.all(xp[:, :, -1] == 0)
        np.testing.assert_array_equal(xp[:, :6, :6], x)

    def test_tdc_kernel_even_filter(self, rng):
        x = rng.standard_normal((3, 7, 7))
        w = rng.standard_normal((4, 3, 2, 2))
        y = TDCDirectKernel(Tiling(3, 3, 2)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)

    def test_tdc_kernel_rectangular_filter(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((3, 2, 1, 3))
        y = TDCDirectKernel(Tiling(4, 4, 1)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)

    def test_tvm_kernel_rectangular_filter(self, rng):
        x = rng.standard_normal((2, 6, 9))
        w = rng.standard_normal((2, 2, 3, 5))
        y = TVMDirectKernel(TVMTiling(3, 3, 2)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)

    def test_non_square_input(self, rng):
        x = rng.standard_normal((3, 5, 11))
        w = rng.standard_normal((2, 3, 3, 3))
        y = TDCDirectKernel(Tiling(2, 4, 2)).run(x, w)
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)


class TestRunDtype:
    """Kernel ``run`` executes in the inputs' dtype: float32 stays
    float32 end to end (no silent float64 promotion), float64 is
    unchanged, and non-float inputs still promote to float64."""

    KERNEL_CASES = [
        (lambda: TDCDirectKernel(Tiling(4, 4, 3)), 3, 3),
        (lambda: TVMDirectKernel(TVMTiling(4, 4, 2)), 3, 3),
        (lambda: CuDNNGemmKernel(GemmConfig(128, 128, 256, 1)), 3, 3),
        (lambda: CuDNNWinogradKernel(), 3, 3),
        (lambda: CuDNNFFTKernel(), 3, 3),
        (lambda: PointwiseConvKernel(), 1, 1),
    ]

    KERNEL_IDS = ["tdc", "tvm", "gemm", "winograd", "fft", "pointwise"]

    @pytest.mark.parametrize("factory,r,s", KERNEL_CASES, ids=KERNEL_IDS)
    def test_float32_stays_float32(self, factory, r, s, rng):
        x = rng.standard_normal((5, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 5, r, s)).astype(np.float32)
        y = factory().run(x, w)
        assert y.dtype == np.float32
        np.testing.assert_allclose(
            y, reference_conv(x, w), rtol=1e-4, atol=1e-4
        )

    @pytest.mark.parametrize("factory,r,s", KERNEL_CASES, ids=KERNEL_IDS)
    def test_float64_unchanged(self, factory, r, s, rng):
        x = rng.standard_normal((5, 8, 8))
        w = rng.standard_normal((4, 5, r, s))
        y = factory().run(x, w)
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)

    def test_mixed_dtypes_promote(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3))  # float64
        y = TDCDirectKernel(Tiling(3, 3, 2)).run(x, w)
        assert y.dtype == np.float64

    def test_integer_inputs_promote_to_float64(self):
        x = np.ones((2, 5, 5), dtype=np.int32)
        w = np.ones((2, 2, 3, 3), dtype=np.int64)
        y = TDCDirectKernel(Tiling(2, 2, 2)).run(x, w)
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, reference_conv(x, w), atol=1e-10)

    def test_float16_promotes_to_float32(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float16)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float16)
        y = TDCDirectKernel(Tiling(3, 3, 2)).run(x, w)
        assert y.dtype == np.float32
        np.testing.assert_allclose(
            y, reference_conv(x, w), rtol=1e-2, atol=1e-2
        )
