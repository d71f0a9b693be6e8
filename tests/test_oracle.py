import numpy as np
import pytest

from reference import (
    BnChannel,
    bn_code_fraction,
    bn_layer,
    dense_conv_loops,
    dense_maxpool_loops,
)
from qnnstream.errors import QuantizationError
from qnnstream.oracle import (
    dense_avgpool,
    dense_conv,
    dense_maxpool,
    dense_skip_adapt,
    pad_dense,
    quantize_dense,
)
from qnnstream.quant import (
    CODE_FLOOR_LIMIT,
    FLOAT32_EXACT,
    FLOAT64_EXACT,
    BnQuantizer,
)


def test_pad_dense():
    x = np.ones((2, 2, 3), dtype=np.int64)
    out = pad_dense(x, 1)
    assert out.shape == (4, 4, 3)
    assert out.sum() == x.sum()
    assert pad_dense(x, 0) is x


def test_dense_conv_agrees_with_loops(rng):
    # the vectorized path against a literal six-loop transcription
    for _ in range(12):
        k = int(rng.choice([1, 2, 3]))
        s = int(rng.choice([1, 2]))
        p = int(rng.choice([0, 1]))
        c = int(rng.integers(1, 4))
        o = int(rng.integers(1, 4))
        h = int(rng.integers(k, k + 4))
        w = int(rng.integers(k, k + 4))
        x = rng.integers(-5, 6, size=(h, w, c))
        raw = rng.standard_normal((k, k, c, o)).astype(np.float32)
        assert np.array_equal(dense_conv(x, raw, s, p),
                              dense_conv_loops(x, raw, s, p))


def test_dense_conv_counts_signs():
    # all-positive weights on an all-ones image just count window size
    x = np.ones((4, 4, 2), dtype=np.int64)
    raw = np.ones((3, 3, 2, 1), dtype=np.float32)
    out = dense_conv(x, raw, 1, 0)
    assert np.all(out == 18)
    out = dense_conv(x, -raw, 1, 0)
    assert np.all(out == -18)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("top", [2**51 - 1, 2**51, 2**51 + 1, 2**22 - 1, 2**22, 2**22 + 1],
                         ids=["below", "at", "above", "f32-below", "f32-at", "f32-above"])
def test_dense_conv_exact_near_float64_limit(top, sign):
    # fan-in K = 2 * 2 * 1 = 4, so max|x| * K is just below, at and just
    # above 2**53 (2**24): the float64 (float32) product below the limit,
    # the next wider type from it on
    narrow, wide, limit = (np.float32, np.float64, FLOAT32_EXACT) if top < 2**23 \
        else (np.float64, np.int64, FLOAT64_EXACT)
    x = sign * (top - np.array([[0, 1, 0], [1, 0, 2], [0, 0, 1]], dtype=np.int64))
    raw = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 2.0]],
                   dtype=np.float32).reshape(2, 2, 1, 2)
    got = dense_conv(x[..., None], raw, 1, 0)
    want = [[sum(int(x[r + i, c + j]) * (1 if raw[i, j, 0, o] >= 0 else -1)
                 for i in range(2) for j in range(2))
             for o in range(2)]
            for r in range(2) for c in range(2)]
    assert got.dtype == (narrow if 4 * top < limit else wide)
    assert got.reshape(4, 2).tolist() == want
    if 4 * top > limit:
        # some sum is odd and past the limit, which the narrower type cannot hold
        assert any(int(narrow(v)) != v for row in want for v in row)


def test_quantize_dense_matches_scalar(rng):
    # gamma of both signs, and a channel whose |A| is so small that every
    # code floor clamps to +/- CODE_FLOOR_LIMIT (its code is 1 throughout)
    bns = [BnChannel(gamma=0.37, mean=-2.5, inv_std=1.9, bias=0.41),
           BnChannel(gamma=-1.2, mean=3.0, inv_std=0.8, bias=1.7),
           BnChannel(gamma=5e-324, mean=0.0, inv_std=1e-30, bias=1.5),
           BnChannel(gamma=-0.05, mean=100.0, inv_std=2.0, bias=-0.3)]
    q = BnQuantizer(bn_layer(bns), 0.9, 2)
    assert q.sign.tolist() == [1, -1, 1, -1]
    assert np.abs(q.floors[:, 2]).tolist() == [CODE_FLOOR_LIMIT] * 3
    y = rng.integers(-300, 300, size=(3, 5, 4))
    y[0, 0] = CODE_FLOOR_LIMIT - 1
    y[0, 1] = 1 - CODE_FLOOR_LIMIT
    out = quantize_dense(y, bn_layer(bns), 0.9, 2)
    assert out.dtype == np.uint8 and out.shape == y.shape
    want = [[[bn_code_fraction(a, bn, 0.9, 2) for bn, a in zip(bns, pixel)] for pixel in row]
            for row in y.tolist()]
    assert out.tolist() == want
    assert set(out[..., 2].reshape(-1).tolist()) == {1}
    # past the clamp the floors no longer decide: refuse, do not guess
    for bad in (CODE_FLOOR_LIMIT, -CODE_FLOOR_LIMIT):
        y[2, 4, 1] = bad
        with pytest.raises(QuantizationError):
            quantize_dense(y, bn_layer(bns), 0.9, 2)
        with pytest.raises(QuantizationError):
            BnQuantizer(bn_layer(bns[1:2]), 0.9, 2).quantize_array(y[..., 1])


def test_dense_maxpool_includes_zero_pads():
    x = np.full((2, 2, 1), -7, dtype=np.int64)
    out = dense_maxpool(x, 2, 2, p=1)
    # every window touches at least one zero pad
    assert out.min() == -7 or out.max() == 0
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == 0  # corner window is 3 pads + one -7


def test_dense_maxpool_agrees_with_loops(rng):
    # the running maximum over strided slices against the nested loops,
    # on narrow codes and on negative accumulators, which the zero pads
    # outrank; the result keeps the map's dtype
    for _ in range(40):
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, k))
        h, w = (int(v) for v in rng.integers(max(1, k - 2 * p), k + 7, size=2))
        c = int(rng.integers(1, 5))
        for x in (rng.integers(0, 4, size=(h, w, c), dtype=np.uint8),
                  rng.integers(-300, 50, size=(h, w, c), dtype=np.int32)):
            got = dense_maxpool(x, k, s, p)
            assert got.dtype == x.dtype
            assert np.array_equal(got, dense_maxpool_loops(x, k, s, p))


def test_dense_avgpool_rounding():
    x = np.array([[[1], [2]], [[3], [4]]], dtype=np.int64)
    assert dense_avgpool(x, 2, 2)[0, 0, 0] == 3  # 2.5 away from zero
    assert dense_avgpool(-x, 2, 2)[0, 0, 0] == -3
    x = np.array([[[1], [2]], [[3], [6]]], dtype=np.int64)
    assert dense_avgpool(x, 2, 2)[0, 0, 0] == 3  # exact 3


def test_dense_skip_adapt():
    x = np.arange(2 * 4 * 4).reshape(4, 4, 2)
    out = dense_skip_adapt(x, 2, 5)
    assert out.shape == (2, 2, 5)
    assert np.array_equal(out[..., :2], x[::2, ::2])
    assert np.all(out[..., 2:] == 0)
    same = dense_skip_adapt(x, 1, 2)
    assert np.array_equal(same, x)

