import hashlib

import numpy as np
import pytest

from conftest import random_net_text
from qnnstream.errors import NetdescError, ParamsError
from qnnstream.netdesc import (
    BUILTIN_BUILDERS,
    RESNET18_TEXT,
    emit_netdesc,
    expand_layers,
    layer_param_counts,
    load_params,
    param_census,
    parse_netdesc,
    random_params,
    save_params,
)

SMALL = """\
input 8 8 3 8
conv k=3 s=1 p=1 o=4 d=2.0 act=2
maxpool k=2 s=2
resblock o=4 s=1 d=1.5 act=2
resblock o=6 s=2 d=1.0 proj
fc o=10 d=0.5 act=2
"""


# ---------------------------------------------------------------------------
# parsing and emission

def test_parse_small():
    net = parse_netdesc(SMALL, name="small")
    kinds = [l.kind for l in net.layers]
    assert kinds == ["input", "conv", "maxpool", "resblock", "resblock", "fc"]
    assert net.layers[1].out_shape.c == 4
    assert net.layers[2].out_shape.h == 4
    assert net.layers[4].out_shape.h == 2
    assert net.layers[4].proj
    assert net.layers[4].act_bits == 2  # default activation width
    assert net.layers[5].out_shape.c == 10


def test_comments_and_blank_lines():
    net = parse_netdesc("# header\n\ninput 4 4 1 2\n conv k=1 s=1 p=0 o=1 "
                        "d=1.0 act=1 # tail\n")
    assert len(net.layers) == 2


def test_emit_roundtrip_small():
    net = parse_netdesc(SMALL)
    text = emit_netdesc(net)
    assert emit_netdesc(parse_netdesc(text)) == text


def test_emit_roundtrip_random(rng):
    for i in range(40):
        text = emit_netdesc(parse_netdesc(random_net_text(rng)))
        assert emit_netdesc(parse_netdesc(text)) == text


@pytest.mark.parametrize("text,line,frag", [
    ("conv k=1 s=1 p=0 o=1 d=1 act=1\n", 1, "first directive"),
    ("input 4 4 1 2\ninput 4 4 1 2\n", 2, "first directive"),
    ("input 4 4\n", 1, "H W C BITS"),
    ("input 4 4 1 9\n", 1, "bits"),
    ("input 0 4 1 2\n", 1, "positive"),
    ("input a 4 1 2\n", 1, "integers"),
    ("input 4 4 1 2\nwat k=1\n", 2, "unknown directive"),
    ("input 4 4 1 2\nconv k=3 s=1 p=0 o=1 act=2\n", 2, "needs d="),
    ("input 4 4 1 2\nconv k=3 s=1 p=0 o=1 d=1 act=none\n", 2, "takes no d="),
    ("input 4 4 1 2\nconv k=0 s=1 p=0 o=1 d=1 act=1\n", 2, "k"),
    ("input 4 4 1 2\nconv k=9 s=1 p=0 o=1 d=1 act=1\n", 2, "exceeds"),
    ("input 4 4 1 2\nresblock o=2 s=2 d=1\n", 2, "proj"),
    ("input 4 4 2 2\nresblock o=2 s=1 d=1 proj\n", 2, "proj"),
    ("input 4 4 4 2\nresblock o=2 s=1 d=1 proj\n", 2, "shrink"),
    ("input 4 4 1 2\nconv k=1 s=1 p=0 o=1 act=none\nconv k=1 s=1 p=0 o=1"
     " d=1 act=1\n", 3, "accum"),
    ("input 4 4 1 2\nconv k=1 s=1 p=0 o=1 d=inf\n", 2, "finite"),
    ("input 4 4 1 2\nresblock o=1 s=1 d=nan\n", 2, "positive"),
    # blobs store d as float32: it must neither overflow nor round to 0
    ("input 4 4 1 2\nconv k=1 s=1 p=0 o=1 d=1e300\n", 2, "finite"),
    ("input 4 4 1 2\nfc o=1 d=3.5e38\n", 2, "finite"),
    ("input 4 4 1 2\nresblock o=1 s=1 d=1e-46\n", 2, "positive"),
    ("", 1, "empty"),
])
@pytest.mark.filterwarnings("error")
def test_parse_errors_carry_line_numbers(text, line, frag):
    with pytest.raises(NetdescError) as e:
        parse_netdesc(text)
    assert e.value.line == line
    assert frag in str(e.value)


# ---------------------------------------------------------------------------
# builtin networks

def test_resnet_shape_chain():
    net = parse_netdesc(RESNET18_TEXT, name="resnet18")
    hs = [l.out_shape.h for l in net.layers]
    cs = [l.out_shape.c for l in net.layers]
    assert hs == [224, 112, 56, 56, 56, 28, 28, 14, 14, 7, 7, 1, 1]
    assert cs == [3, 64, 64, 64, 64, 128, 128, 256, 256, 512, 512, 512, 1000]
    assert net.layers[1].k == 7 and net.layers[1].s == 2 and net.layers[1].p == 3


def test_resnet_expansion():
    net = BUILTIN_BUILDERS["resnet18"]()
    plans = expand_layers(net)
    assert len(plans) == 32
    names = [p.name for p in plans]
    assert names[0] == "conv1" and names[-1] == "fc1"
    assert names.count("block3_ss") == 1
    assert sum(p.kind == "join" for p in plans) == 8
    assert sum(p.kind == "subsample" for p in plans) == 3
    assert sum(p.kind == "tee" for p in plans) == 1
    # every join's skip source resolves to a tee, join or subsample
    by_index = {p.index: p for p in plans}
    for p in plans:
        if p.kind == "join":
            assert by_index[p.skip_src].kind in ("tee", "join", "subsample")


def test_builtin_names():
    assert set(BUILTIN_BUILDERS) == {"resnet18", "alexnet", "vgg"}
    for name, build in BUILTIN_BUILDERS.items():
        net = build()
        assert net.layers[-1].kind == "fc"


def test_census_frozen():
    assert param_census(BUILTIN_BUILDERS["resnet18"]()) == 11522496
    assert param_census(BUILTIN_BUILDERS["alexnet"]()) == 62406048
    assert param_census(BUILTIN_BUILDERS["vgg"]()) == 3516608


def test_census_matches_hand_formula():
    net = parse_netdesc(SMALL)
    total = 0
    for l in net.layers:
        if l.kind == "conv":
            total += l.k * l.k * l.in_shape.c * l.o + (4 * l.o if l.fused else 0)
        elif l.kind == "fc":
            total += l.in_shape.elements * l.o + (4 * l.o if l.fused else 0)
        elif l.kind == "resblock":
            total += 9 * l.in_shape.c * l.o + 9 * l.o * l.o + 8 * l.o
    assert param_census(net) == total
    w, b = layer_param_counts(net.layers[1])
    assert (w, b) == (3 * 3 * 3 * 4, 16)


# ---------------------------------------------------------------------------
# parameter blobs

def test_blob_length_and_roundtrip(rng):
    net = parse_netdesc(SMALL)
    blob = random_params(net, rng)
    assert len(blob) == 12 + 4 * len(net.layers) + 4 * param_census(net)
    params = load_params(blob, net)

    arrays = []
    for layer, lp in zip(net.layers, params):
        if layer.kind in ("conv", "fc"):
            cp = lp.convs["main"]
            entry = {"weights": cp.raw_weights}
            if layer.fused:
                entry["bn"] = np.stack(
                    [[p.gamma for p in cp.bn], [p.mean for p in cp.bn],
                     [p.inv_std for p in cp.bn], [p.bias for p in cp.bn]])
            arrays.append(entry)
        elif layer.kind == "resblock":
            def stack(bns):
                return np.stack(
                    [[p.gamma for p in bns], [p.mean for p in bns],
                     [p.inv_std for p in bns], [p.bias for p in bns]])
            arrays.append({"weights_a": lp.convs["a"].raw_weights,
                           "bn_join": stack(lp.join_bn),
                           "weights_b": lp.convs["b"].raw_weights,
                           "bn_b": stack(lp.convs["b"].bn)})
        else:
            arrays.append(None)
    assert save_params(net, arrays) == blob


# sha256 of random_params(builtin, default_rng(0)); seeded test corpora
# depend on its draw order, so a change here changes every one of them
RANDOM_PARAMS_SHA256 = {
    "resnet18": "5819bdd625b0d1b1a254a7fc09968cc096a1a669f71cc26a6098894caebe65d9",
    "alexnet": "2a2aeb396bd472cb476a09f597927acd3babe65a92e0ad2a028da8bb6136a935",
    "vgg": "edb66d8f75372e920fc8fdea7af0b14707cd111ac8d28fca5540a0e02553e246",
}


@pytest.mark.parametrize("name", sorted(RANDOM_PARAMS_SHA256))
def test_random_params_bytes_pinned(name):
    blob = random_params(BUILTIN_BUILDERS[name](), np.random.default_rng(0))
    assert hashlib.sha256(blob).hexdigest() == RANDOM_PARAMS_SHA256[name]


def test_blob_error_paths(rng):
    net = parse_netdesc(SMALL)
    blob = random_params(net, rng)

    with pytest.raises(ParamsError, match="header"):
        load_params(blob[:8], net)
    with pytest.raises(ParamsError, match="magic"):
        load_params(b"XXXX" + blob[4:], net)
    with pytest.raises(ParamsError, match="short"):
        load_params(blob[:-40], net)
    with pytest.raises(ParamsError, match="left over"):
        load_params(blob + b"\0\0\0\0", net)

    other = parse_netdesc("input 8 8 3 8\nconv k=3 s=1 p=1 o=4 d=2.0 act=2\n")
    with pytest.raises(ParamsError, match="layers"):
        load_params(blob, other)

    bad = bytearray(blob)
    bad[12:16] = np.float32(9.0).tobytes()  # d header of the input layer
    with pytest.raises(ParamsError, match="d"):
        load_params(bytes(bad), net)

    for value in ("nan", "inf", "-inf"):
        bad = bytearray(blob)
        bad[-4:] = np.float32(value).tobytes()
        with pytest.raises(ParamsError, match="NaN"):
            load_params(bytes(bad), net)


def test_blob_rejects_degenerate_bn(rng):
    net = parse_netdesc("input 2 2 1 2\nconv k=1 s=1 p=0 o=1 d=1.0 act=1\n")
    arrays = [None, {"weights": np.ones((1, 1, 1, 1), dtype=np.float32),
                     "bn": np.array([[0.0], [0.0], [1.0], [0.0]],
                                    dtype=np.float32)}]
    blob = save_params(net, arrays)
    with pytest.raises(ParamsError, match="gamma"):
        load_params(blob, net)


def test_save_params_validation():
    net = parse_netdesc("input 2 2 1 2\nconv k=1 s=1 p=0 o=1 d=1.0 act=1\n")
    with pytest.raises(ParamsError, match="needs parameters"):
        save_params(net, [None, None])
    with pytest.raises(ParamsError, match="takes no parameters"):
        save_params(net, [{"weights": None}, None])
    with pytest.raises(ParamsError, match="does not match"):
        save_params(net, [None, {"weights": np.ones((1, 1, 2, 1),
                                                    dtype=np.float32),
                                 "bn": np.ones((4, 1), dtype=np.float32)}])


def test_random_params_spread_codes(rng):
    # folded thresholds should produce a mix of output levels, not a
    # constant stream saturated at one end
    from qnnstream.engine import ModelConfig, build_graph, run

    net = parse_netdesc("input 12 12 2 2\nconv k=3 s=1 p=1 o=8 d=1.0 act=2\n")
    params = load_params(random_params(net, rng), net)
    assert len(params[1].convs["main"].thresholds) == 8
    img = rng.integers(0, 4, size=(12, 12, 2), dtype=np.uint8)
    res = run(build_graph(net, params), img, ModelConfig())
    assert len(np.unique(res.output)) >= 2
