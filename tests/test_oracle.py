import numpy as np
import pytest

from qnnstream.errors import AccumOverflowError
from qnnstream.netdesc import load_params, parse_netdesc
from qnnstream.oracle import (
    dense_avgpool,
    dense_conv,
    dense_conv_loops,
    dense_infer,
    dense_maxpool,
    dense_skip_adapt,
    pad_dense,
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
@pytest.mark.parametrize("top", [2**51 - 1, 2**51, 2**51 + 1],
                         ids=["below", "at", "above"])
def test_dense_conv_exact_near_float64_limit(top, sign):
    # fan-in K = 2 * 2 * 1 = 4, so max|x| * K is just below, at and just
    # above 2**53: the float64 product below the limit, int64 from it on
    x = sign * (top - np.array([[0, 1, 0], [1, 0, 2], [0, 0, 1]], dtype=np.int64))
    raw = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 2.0]],
                   dtype=np.float32).reshape(2, 2, 1, 2)
    got = dense_conv(x[..., None], raw, 1, 0)
    want = [[sum(int(x[r + i, c + j]) * (1 if raw[i, j, 0, o] >= 0 else -1)
                 for i in range(2) for j in range(2))
             for o in range(2)]
            for r in range(2) for c in range(2)]
    assert got.dtype == np.int64
    assert got.reshape(4, 2).tolist() == want
    if top > 2**51:
        # some sum is odd and past 2**53, which a float64 cannot hold
        assert any(int(float(v)) != v for row in want for v in row)


def test_dense_maxpool_includes_zero_pads():
    x = np.full((2, 2, 1), -7, dtype=np.int64)
    out = dense_maxpool(x, 2, 2, p=1)
    # every window touches at least one zero pad
    assert out.min() == -7 or out.max() == 0
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == 0  # corner window is 3 pads + one -7


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


def test_dense_infer_flags_wide_accumulators():
    # an unfused conv whose fan-in can overflow 16 bits must refuse:
    # all-positive weights on a saturated 3-bit image reach
    # 11 * 11 * 40 * 7 = 33880, past the signed 16-bit limit
    from qnnstream.netdesc import save_params

    net = parse_netdesc("input 11 11 40 3\nconv k=11 s=1 p=0 o=4 act=none\n")
    arrays = [None,
              {"weights": np.ones((11, 11, 40, 4), dtype=np.float32)}]
    params = load_params(save_params(net, arrays), net)
    img = np.full((11, 11, 40), 7, dtype=np.uint8)
    with pytest.raises(AccumOverflowError):
        dense_infer(net, params, img)
