"""Tests for the block-splitting (quality-layer) refactorer."""

import numpy as np
import pytest

from repro.core.blocksplit import block_restore, block_split
from repro.errors import RefactoringError

TOLS = (1e-1, 1e-3, 1e-5)


@pytest.fixture(scope="module")
def signal():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 15, 10_000)
    return np.sin(x) * np.exp(-0.05 * x) + rng.normal(0, 0.05, x.size)


class TestBlockSplit:
    def test_layer_structure(self, signal):
        layers = block_split(signal, TOLS, block=2048)
        assert len(layers) == 3
        assert [l.index for l in layers] == [0, 1, 2]
        assert all(len(l.payloads) == 5 for l in layers)

    def test_prefix_accuracy_contract(self, signal):
        """Reading layers 0..k reconstructs within tolerances[k]."""
        layers = block_split(signal, TOLS, block=2048)
        for k, tol in enumerate(TOLS):
            approx = block_restore(layers[: k + 1], count=signal.size)
            assert np.abs(approx - signal).max() <= tol + 1e-12

    def test_layers_shrink_roughly_geometrically(self, signal):
        layers = block_split(signal, TOLS, block=2048)
        # Later layers encode small residuals at tight tolerance — they
        # are not huge relative to the base.
        assert layers[0].nbytes < signal.nbytes
        total = sum(l.nbytes for l in layers)
        assert total < signal.nbytes  # still a net reduction

    def test_block_selective_refinement(self, signal):
        layers = block_split(signal, TOLS, block=2048)
        mask = np.array([True, False, False, False, False])
        out = block_restore(layers, count=signal.size, block_mask=mask)
        # Selected block: full accuracy.
        assert np.abs(out[:2048] - signal[:2048]).max() <= TOLS[-1] + 1e-12
        # Unselected blocks: base accuracy only (and not better).
        tail_err = np.abs(out[2048:] - signal[2048:]).max()
        assert tail_err <= TOLS[0] + 1e-12
        assert tail_err > TOLS[1]

    def test_validation(self, signal):
        with pytest.raises(RefactoringError):
            block_split(signal, ())
        with pytest.raises(RefactoringError):
            block_split(signal, (1e-3, 1e-1))  # increasing
        with pytest.raises(RefactoringError):
            block_split(signal, (1e-3, 1e-3))  # not strictly decreasing
        with pytest.raises(RefactoringError):
            block_split(signal, (0.0,))
        with pytest.raises(RefactoringError):
            block_split(signal, TOLS, block=0)

    def test_restore_validation(self, signal):
        layers = block_split(signal, TOLS, block=4096)
        with pytest.raises(RefactoringError):
            block_restore([])
        with pytest.raises(RefactoringError):
            block_restore(layers[1:])  # missing base
        with pytest.raises(RefactoringError):
            block_restore([layers[0], layers[2]])  # gap
        with pytest.raises(RefactoringError):
            block_restore(layers, block_mask=np.array([True]))

    def test_small_input_single_block(self):
        data = np.array([1.0, 2.0, 3.0])
        layers = block_split(data, (1e-2, 1e-6), block=1000)
        out = block_restore(layers, count=3)
        assert np.abs(out - data).max() <= 1e-6 + 1e-12

    def test_sz_codec_backend(self, signal):
        layers = block_split(signal, (1e-2, 1e-4), codec="sz", block=4096)
        out = block_restore(layers, count=signal.size)
        assert np.abs(out - signal).max() <= 1e-4 + 1e-12

    def test_mixed_layer_block_counts_rejected(self, signal):
        a = block_split(signal, (1e-2,), block=2048)[0]
        b = block_split(signal, (1e-2, 1e-4), block=4096)[1]
        with pytest.raises(RefactoringError):
            block_restore([a, b], count=signal.size)
