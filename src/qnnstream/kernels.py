"""Streaming layer stages.

Each stage consumes a depth-first pixel stream (channel fastest, then
along the scan line, then across lines) and produces one. Windowed stages
keep only a sliding line buffer of the most recent elements; reading an
element that has already been evicted is a hard fault, which is how the
buffer sizing formula is validated.

Stages are driven by an external scheduler through step(). A step makes
as much progress as the attached FIFOs allow and never blocks. The step
loop is written once, in Stage; each stage kind supplies _advance(),
which consumes one unit of input and emits what that unit completes.
For a windowed stage the unit is a run of pixels inside one padded row,
as many as the input FIFO holds: the run is written to the line buffer
at once, and every window it completes is gathered and computed as one
batch. Other stages take a chunk of elements. All cycle counters are
structural (functions of shapes and the trigger rule alone), so they do
not depend on scheduling order or on how input is batched.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BufferEvictionError, ShapeError
from .quant import ACCUM_BITS, FLOAT64_EXACT, check_accum_array, popcount_dot


@dataclass(frozen=True)
class StreamShape:
    """Shape and element kind of a pixel stream."""

    h: int
    w: int
    c: int
    kind: str  # "u8" | "code" | "accum"
    bits: int  # element width: 8 for u8, n for codes, 16 for accum

    def __post_init__(self):
        if self.h < 1 or self.w < 1 or self.c < 1:
            raise ShapeError("stream dims must be positive, got %dx%dx%d"
                             % (self.h, self.w, self.c))
        if self.kind not in ("u8", "code", "accum"):
            raise ShapeError("unknown stream kind %r" % (self.kind,))

    @property
    def elements(self) -> int:
        return self.h * self.w * self.c

    @property
    def pixels(self) -> int:
        return self.h * self.w


def line_buffer_capacity(c: int, line_len: int, k: int) -> int:
    """Elements a depth-first sliding window needs: I*L*(K-1) + I*K."""
    return c * (line_len * (k - 1) + k)


def width_first_capacity(line_len: int, n_lines: int, c: int, k: int) -> int:
    """Buffer needed if the stream were scanned plane by plane instead."""
    return line_len * n_lines * (c - 1) + line_len * (k - 1) + k


class LineBuffer:
    """Ring buffer over the most recent elements of a depth-first stream.

    Elements are addressed by their absolute position in the stream, so a
    stale read is detected instead of silently returning overwritten
    data. capacity is the sized buffer: a window may only be read if
    each of its elements lies within capacity of the element that
    completed it. The ring may carry slack beyond that, so that windows
    completed early in a batch are still there when the batch is read;
    the slack never makes a window readable that capacity would evict.
    """

    def __init__(self, capacity: int, name: str = "linebuffer", slack: int = 0):
        if capacity < 1:
            raise ShapeError("line buffer capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.ring = np.zeros(capacity + slack, dtype=np.int32)
        self.total = 0

    def push(self, arr: np.ndarray):
        n = len(arr)
        size = len(self.ring)
        if n > size:  # only the newest elements survive
            self.total += n - size
            arr = arr[n - size:]
            n = size
        start = self.total % size
        end = start + n
        if end <= size:
            self.ring[start:end] = arr
        else:
            self.ring[start:] = arr[:size - start]
            self.ring[:end - size] = arr[size - start:]
        self.total += n

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Read windows by absolute element index.

        idx is one window, or one window per row; every window has the
        same offset pattern, its oldest element first and the element
        that completed it last, and rows are in completion order.
        """
        first = idx if idx.ndim == 1 else idx[0]
        oldest = int(first[0])
        if int(first[-1]) - oldest >= self.capacity or \
                oldest < self.total - len(self.ring):
            raise BufferEvictionError(
                "%s: element %d already evicted (capacity %d, ingested %d)"
                % (self.name, oldest, self.capacity, self.total))
        if int(idx.flat[-1]) >= self.total:
            raise ShapeError("%s: read past ingested elements" % self.name)
        return self.ring[idx % len(self.ring)]


def build_threshold_matrix(threshold_sets):
    """Stack per-channel ThresholdSets into sign-folded rows.

    Returns (mat, sign): the code for accumulator a on channel j is the
    count of values in mat[j] that are <= sign[j] * a. An inverted
    channel counts the thresholds >= a, so its row holds them negated
    with sign -1 (v >= a iff -v <= -a); ties go up either way. Threshold
    magnitudes can exceed int64 when gamma * inv_std is tiny; clamping
    to +/-2**62 preserves every comparison against accumulator values,
    which are far smaller.
    """
    clamp = 1 << 62
    sign = np.array([-1 if ts.inverted else 1 for ts in threshold_sets], dtype=np.int64)
    mat = np.array([[min(max(v, -clamp), clamp) for v in ts.values]
                    for ts in threshold_sets], dtype=np.int64)
    return mat * sign[:, None], sign


def apply_threshold_matrix(accs: np.ndarray, mat: np.ndarray, sign: np.ndarray):
    """Codes for accumulators whose last axis runs along the rows of mat,
    one comparison per threshold."""
    return ((accs * sign)[..., None] >= mat).sum(axis=-1, dtype=np.int32)


def activation(thresholds):
    """The epilogue of a conv or fc stage, as a function of its accumulators.

    With per-channel thresholds it is the fused batchnorm + activation and
    emits codes; without, the accumulators pass on as range-checked 16-bit
    values.
    """
    if thresholds is None:
        return lambda accs: check_accum_array(accs, ACCUM_BITS).astype(np.int32)
    mat, sign = build_threshold_matrix(thresholds)
    return lambda accs: apply_threshold_matrix(accs, mat, sign)


class Stage:
    """Base class: the step loop, counters, pending output.

    step() is the one step loop. It offers any pending output to its
    FIFOs, then calls _advance() until that returns False (the input is
    not there), output is left pending (a FIFO is full) or the whole
    input is ingested. It never blocks. Each stage kind supplies only
    _advance(): consume one unit of input (a run of pixels, or a chunk of
    elements), emit what that unit completes, and say whether it moved.

    _advance() runs only when nothing is pending and emits at most one
    array per FIFO, so pending output is one array per destination FIFO.
    A stage with two outputs (a join feeding both the skip chain and the
    next conv) must not let a momentarily full skip FIFO hold up codes
    bound elsewhere: the codes are what ultimately drain that skip FIFO,
    so serializing the two would deadlock. Order is still preserved per
    FIFO.
    """

    def __init__(self, name: str, kind: str, in_shape, out_shape, first_compute: int = 0):
        self.name = name
        self.kind = kind
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.first_compute = first_compute
        # wired by the graph builder
        self.in_fifo = None
        self.out_fifo = None
        # structural counters
        self.real_el = 0
        self.pad_el = 0
        self.compute_cycles = 0
        self.fill_el = None  # elements ingested when the first output appeared
        self.ingest_done = False
        self.pending = {}  # fifo -> the part of an emitted array it has not taken

    def _fill_value(self) -> int:
        return self.real_el + self.pad_el

    def _emit(self, fifo, arr: np.ndarray):
        if self.fill_el is None:
            self.fill_el = self._fill_value()
        if fifo is not None:
            self.pending[fifo] = arr

    def _flush(self) -> bool:
        progressed = False
        for fifo, arr in list(self.pending.items()):
            taken = fifo.push(arr)
            if taken == len(arr):
                del self.pending[fifo]
            elif taken:
                self.pending[fifo] = arr[taken:]
            progressed = progressed or taken > 0
        return progressed

    @property
    def finished(self) -> bool:
        return self.ingest_done and not self.pending

    def _advance(self) -> bool:
        raise NotImplementedError

    def step(self) -> bool:
        progressed = self._flush() if self.pending else False
        while not (self.pending or self.ingest_done):
            if not self._advance():
                break
            progressed = True
            if self.pending:
                self._flush()
        return progressed


class WindowedStage(Stage):
    """Common machinery for stages that slide a K x K window.

    The ingest cursor walks the padded coordinate grid in scan order. The
    unit of an _advance is a run of pixels inside one padded row: it
    starts at the cursor and ends at the end of the row or where the
    input FIFO runs dry. Pad positions inject pad_value without consuming
    input; they still cost one input unit each, since the real stream is
    halted while the pad element is fed in. A run is one FIFO pop, one
    line-buffer write, one gather of every window whose bottom-right
    pixel the run completed (the trigger rule), one _compute over those
    windows and one emitted array. All counters are those of a
    pixel-at-a-time walk: fill_el is taken at the first window fired.
    """

    def __init__(self, name, kind, in_shape, out_shape, k, s, p,
                 pad_value: int = 0, first_compute: int = 0,
                 buffer_capacity: int = None):
        super().__init__(name, kind, in_shape, out_shape, first_compute)
        self.k = k
        self.s = s
        self.p = p
        self.hp = in_shape.h + 2 * p
        self.wp = in_shape.w + 2 * p
        if self.hp < k or self.wp < k:
            raise ShapeError("%s: window %d exceeds padded input %dx%d"
                             % (name, k, self.hp, self.wp))
        expect = (self.hp - k) // s + 1
        if out_shape.h != expect or out_shape.w != (self.wp - k) // s + 1:
            raise ShapeError("%s: output shape mismatch" % name)
        c = in_shape.c
        if buffer_capacity is None:
            buffer_capacity = line_buffer_capacity(c, self.wp, k)
        # one padded row of slack holds a run's earliest windows until the
        # run is read
        self.lbuf = LineBuffer(buffer_capacity, name=name, slack=self.wp * c)
        self.pad_row = np.full(self.wp * c, pad_value, dtype=np.int32)
        self.cursor = 0  # padded pixel index
        self.total_px = self.hp * self.wp
        # window gather pattern relative to the top-left element
        rows = (np.arange(k) * self.wp)[:, None] + np.arange(k)[None, :]
        self.win_offsets = (rows.reshape(-1, 1) * c + np.arange(c)[None, :]).reshape(-1)

    def _compute(self, windows: np.ndarray) -> np.ndarray:
        """(N, K*K*C) windows -> (N, out channels) outputs."""
        raise NotImplementedError

    def _fire(self, pr: int, done_from: int, done_to: int):
        """Fire the windows whose bottom-right pixel is in padded row pr,
        columns done_from .. done_to - 1."""
        k, s = self.k, self.s
        r0 = pr - (k - 1)
        if r0 < 0 or r0 % s:
            return
        lo = -(-max(done_from - (k - 1), 0) // s) * s
        cols = np.arange(lo, done_to - (k - 1), s)
        if not len(cols):
            return
        if self.fill_el is None:
            self.fill_el = (pr * self.wp + lo + k) * self.in_shape.c
        bases = (r0 * self.wp + cols) * self.in_shape.c
        windows = self.lbuf.gather(bases[:, None] + self.win_offsets)
        self._emit(self.out_fifo, self._compute(windows).reshape(-1))

    def _advance(self) -> bool:
        c, p, wp = self.in_shape.c, self.p, self.wp
        pr, pc = divmod(self.cursor, wp)
        if p <= pr < p + self.in_shape.h:
            if not self.in_fifo.occ:
                return False
            left = max(p - pc, 0)
            want = (p + self.in_shape.w - pc - left) * c - self.real_el % c
            run = got = self.in_fifo.pop(want)
            right = p if len(got) == want else 0
            if left or right:
                run = np.concatenate((self.pad_row[:left * c], got,
                                      self.pad_row[:right * c]))
            self.real_el += len(got)
            self.pad_el += (left + right) * c
        else:
            run = self.pad_row[pc * c:]
            self.pad_el += len(run)
        self.lbuf.push(run)
        self.cursor = (self.real_el + self.pad_el) // c
        done_to = self.cursor - pr * wp
        if done_to == pc:
            return True  # the run ended inside a pixel
        self.ingest_done = self.cursor == self.total_px
        self._fire(pr, pc, done_to)
        return True


class ConvStage(WindowedStage):
    """Binarized convolution over activation codes.

    Per valid position the input halts for out_ch compute cycles, one
    output channel per cycle. The dot products run on packed bit planes
    (quant.popcount_dot): the weights are already packed into 64-bit
    words (WeightBlock.words), the window codes of a run into n bit
    planes of words, and each plane meets each weight row by AND +
    popcount.
    """

    def __init__(self, name, in_shape, out_shape, weights, s, p,
                 thresholds=None, buffer_capacity=None):
        if in_shape.kind != "code":
            raise ShapeError("%s: conv consumes activation codes" % name)
        if weights.in_ch != in_shape.c:
            raise ShapeError("%s: weights expect %d channels, stream has %d"
                             % (name, weights.in_ch, in_shape.c))
        super().__init__(name, "conv", in_shape, out_shape, weights.k, s, p,
                         pad_value=0, first_compute=weights.out_ch,
                         buffer_capacity=buffer_capacity)
        self.weights = weights
        self.activate = activation(thresholds)

    def _compute(self, windows):
        accs = popcount_dot(self.weights.words, windows, self.in_shape.bits)
        self.compute_cycles += len(windows) * self.weights.out_ch
        return self.activate(accs)


def float_signed_matrix(name, weights, in_shape) -> np.ndarray:
    """The +/-1 weights as a (K, out_ch) float64 matrix, K the fan-in.

    Inputs from in_shape are integers of magnitude below 2**bits, so
    every partial sum of a product with this matrix is an integer below
    2**bits * K. While that is at most 2**53 a float64 holds each one
    exactly, and the product through BLAS is exact in any order.
    """
    if (1 << in_shape.bits) * weights.entry_bits > FLOAT64_EXACT:
        raise ShapeError("%s: fan-in %d is too wide for an exact float64 product"
                         % (name, weights.entry_bits))
    return np.ascontiguousarray(weights.signed_matrix().T, dtype=np.float64)


class FirstConvStage(WindowedStage):
    """High precision first layer: 8-bit pixels under +/-1 weights.

    Accumulation is plain signed add/subtract, expressed as an exact
    float64 matrix product (float_signed_matrix). Internal accumulators
    are wider than 16 bits; only values that cross an accumulator stream
    are range checked.
    """

    def __init__(self, name, in_shape, out_shape, weights, s, p,
                 thresholds=None, buffer_capacity=None):
        if in_shape.kind != "u8":
            raise ShapeError("%s: first conv consumes 8-bit pixels" % name)
        if weights.in_ch != in_shape.c:
            raise ShapeError("%s: weights expect %d channels, stream has %d"
                             % (name, weights.in_ch, in_shape.c))
        super().__init__(name, "firstconv", in_shape, out_shape, weights.k, s, p,
                         pad_value=0, first_compute=weights.out_ch,
                         buffer_capacity=buffer_capacity)
        self.weights = weights
        self.w_mat = float_signed_matrix(name, weights, in_shape)
        self.activate = activation(thresholds)

    def _compute(self, windows):
        accs = (windows.astype(np.float64) @ self.w_mat).astype(np.int64)
        self.compute_cycles += len(windows) * self.weights.out_ch
        return self.activate(accs)


class MaxPoolStage(WindowedStage):
    """Channelwise window max. Free: output appears on the cycle the last
    contributing input arrives, no compute halt."""

    def __init__(self, name, in_shape, out_shape, k, s, p=0, buffer_capacity=None):
        super().__init__(name, "maxpool", in_shape, out_shape, k, s, p,
                         pad_value=0, buffer_capacity=buffer_capacity)

    def _compute(self, windows):
        return windows.reshape(len(windows), self.k * self.k, -1).max(axis=1)


class AvgPoolStage(WindowedStage):
    """Channelwise window mean, rounding half away from zero.

    Divides by the full window size including pads. Emits accumulators;
    code inputs are widened (their integer values are unchanged).
    """

    def __init__(self, name, in_shape, out_shape, k, s, p=0, buffer_capacity=None):
        super().__init__(name, "avgpool", in_shape, out_shape, k, s, p,
                         pad_value=0, buffer_capacity=buffer_capacity)

    def _compute(self, windows):
        m = self.k * self.k
        sums = windows.reshape(len(windows), m, -1).sum(axis=1, dtype=np.int64)
        rounded = np.sign(sums) * ((2 * np.abs(sums) + m) // (2 * m))
        return rounded.astype(np.int32)


class ElementwiseStage(Stage):
    """Base for stages that map their input element by element.

    Any chunk of input can be consumed and passed on at once, so an
    output exists as soon as the first element is in.
    """

    def __init__(self, name, kind, in_shape, out_shape):
        super().__init__(name, kind, in_shape, out_shape)
        self.el_total = in_shape.elements

    def _fill_value(self) -> int:
        return 1

    def _ingested(self, n: int):
        self.real_el += n
        self.ingest_done = self.real_el == self.el_total


class ResidualJoinStage(ElementwiseStage):
    """Elementwise 16-bit sum of the regular path and the skip path.

    The sum is split two ways: raw accumulators continue down the skip
    chain, and a thresholded copy feeds the next convolution. Both paths
    carry the identical sum. Consumption is pairwise elementwise; the
    stalled_on_skip counter records any step where the regular path had
    data but the skip path did not (the skip buffer is sized so this
    never happens).
    """

    def __init__(self, name, shape, thresholds, act_bits):
        out_shape = StreamShape(shape.h, shape.w, shape.c, "code", act_bits)
        super().__init__(name, "join", shape, out_shape)
        self.skip_fifo = None
        self.skip_out_fifo = None
        self.thr_mat, self.thr_sign = build_threshold_matrix(thresholds)
        self.stalled_on_skip = 0

    def _advance(self) -> bool:
        n = min(self.in_fifo.occ, self.skip_fifo.occ, self.el_total - self.real_el)
        if not n:
            if self.in_fifo.occ:
                self.stalled_on_skip += 1
            return False
        reg = self.in_fifo.pop(n).astype(np.int64)
        skip = self.skip_fifo.pop(n).astype(np.int64)
        sums = check_accum_array(reg + skip, ACCUM_BITS)
        chans = (self.real_el + np.arange(n)) % self.in_shape.c
        codes = apply_threshold_matrix(sums, self.thr_mat[chans], self.thr_sign[chans])
        self._ingested(n)
        self._emit(self.skip_out_fifo, sums.astype(np.int32))
        self._emit(self.out_fifo, codes)
        return True


class TeeWidenStage(ElementwiseStage):
    """Splits a code stream at the start of a residual run.

    Codes pass through unchanged on the regular path; the same values,
    widened to accumulators, seed the skip chain.
    """

    def __init__(self, name, shape):
        super().__init__(name, "tee", shape, shape)
        self.skip_out_fifo = None

    def _advance(self) -> bool:
        got = self.in_fifo.pop(self.el_total - self.real_el)
        if not len(got):
            return False
        self._ingested(len(got))
        self._emit(self.skip_out_fifo, got.copy())
        self._emit(self.out_fifo, got)
        return True


class SkipDownsampleStage(ElementwiseStage):
    """Adapts a skip stream across a shape change, parameter free.

    Keeps every stride-th pixel and zero fills the new channels. The
    16-bit skip datapath rules out a learned projection here; spatial
    subsampling plus zero padding is the standard parameter-free choice.
    """

    def __init__(self, name, in_shape, out_shape, s):
        super().__init__(name, "subsample", in_shape, out_shape)
        if out_shape.c < in_shape.c:
            raise ShapeError("%s: cannot drop skip channels" % name)
        if (in_shape.h - 1) // s + 1 != out_shape.h or (in_shape.w - 1) // s + 1 != out_shape.w:
            raise ShapeError("%s: subsample shapes do not compose" % name)
        self.s = s
        self.zero_fill = np.zeros(out_shape.c - in_shape.c, dtype=np.int32)

    def _advance(self) -> bool:
        c = self.in_shape.c
        px, have = divmod(self.real_el, c)
        got = self.in_fifo.pop(c - have)
        if not len(got):
            return False
        self._ingested(len(got))
        r, col = divmod(px, self.in_shape.w)
        if r % self.s == 0 and col % self.s == 0:
            if have + len(got) == c and len(self.zero_fill):
                got = np.concatenate([got, self.zero_fill])
            self._emit(self.out_fifo, got)
        return True


class FcStage(Stage):
    """Fully connected layer as a 1x1 convolution over the flattened input.

    The depth-first stream order is exactly the flatten order, so the
    stage collects the whole frame and fires a single position with one
    compute cycle per output channel.
    """

    def __init__(self, name, in_shape, out_shape, weights, thresholds=None):
        super().__init__(name, "fc", in_shape, out_shape,
                         first_compute=weights.out_ch)
        if weights.k != 1 or weights.in_ch != in_shape.elements:
            raise ShapeError("%s: weights expect %d inputs, stream has %d"
                             % (name, weights.in_ch, in_shape.elements))
        self.weights = weights
        self.activate = activation(thresholds)
        self.flat = np.empty(in_shape.elements, dtype=np.int32)
        if in_shape.kind != "code":
            self.w_mat = float_signed_matrix(name, weights, in_shape)

    def _accumulate(self) -> np.ndarray:
        if self.in_shape.kind == "code":
            return popcount_dot(self.weights.words, self.flat[None], self.in_shape.bits)[0]
        return (self.flat.astype(np.float64) @ self.w_mat).astype(np.int64)

    def _advance(self) -> bool:
        got = self.in_fifo.pop(len(self.flat) - self.real_el)
        if not len(got):
            return False
        self.flat[self.real_el:self.real_el + len(got)] = got
        self.real_el += len(got)
        if self.real_el == len(self.flat):
            self.compute_cycles += self.weights.out_ch
            self._emit(self.out_fifo, self.activate(self._accumulate()))
            self.ingest_done = True
        return True
