"""Streaming layer stages.

Each stage consumes a depth-first pixel stream (channel fastest, then
along the scan line, then across lines) and produces one. Windowed stages
keep only a sliding line buffer of the most recent elements; reading an
element that has already been evicted is a hard fault, which is how the
buffer sizing formula is validated.

Stages are driven by an external scheduler through step(). A step makes
as much progress as the attached FIFOs allow and never blocks. All cycle
counters are structural (functions of shapes and the trigger rule alone),
so they do not depend on scheduling order.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BufferEvictionError, ShapeError
from .quant import ACCUM_BITS, check_accum_array, packed_dot


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
    stale read (older than capacity) is detected instead of silently
    returning overwritten data.
    """

    def __init__(self, capacity: int, name: str = "linebuffer"):
        if capacity < 1:
            raise ShapeError("line buffer capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.ring = np.zeros(capacity, dtype=np.int32)
        self.total = 0

    def push(self, arr: np.ndarray):
        n = len(arr)
        idx = (self.total + np.arange(n)) % self.capacity
        self.ring[idx] = arr
        self.total += n

    def gather(self, abs_idx: np.ndarray) -> np.ndarray:
        lo = int(abs_idx.min())
        if lo < self.total - self.capacity:
            raise BufferEvictionError(
                "%s: element %d already evicted (capacity %d, ingested %d)"
                % (self.name, lo, self.capacity, self.total))
        if int(abs_idx.max()) >= self.total:
            raise ShapeError("%s: read past ingested elements" % self.name)
        return self.ring[abs_idx % self.capacity]


def build_threshold_matrix(threshold_sets):
    """Stack per-channel ThresholdSets into arrays for vectorized activation.

    Threshold magnitudes can exceed int64 when gamma * inv_std is tiny;
    clamping to +/-2**62 preserves every comparison against accumulator
    values, which are far smaller.
    """
    clamp = 1 << 62
    m = len(threshold_sets[0].values)
    mat = np.empty((len(threshold_sets), m), dtype=np.int64)
    inv = np.empty(len(threshold_sets), dtype=bool)
    for row, ts in enumerate(threshold_sets):
        mat[row] = [min(max(v, -clamp), clamp) for v in ts.values]
        inv[row] = ts.inverted
    return mat, inv


def apply_threshold_matrix(accs: np.ndarray, mat: np.ndarray, inv: np.ndarray):
    # count of thresholds <= a, or >= a for inverted channels (ties go up)
    ge = (accs[:, None] >= mat).sum(axis=1)
    le = (accs[:, None] <= mat).sum(axis=1)
    return np.where(inv, le, ge).astype(np.int32)


def activation(thresholds):
    """The epilogue of a conv or fc stage, as a function of its accumulators.

    With per-channel thresholds it is the fused batchnorm + activation and
    emits codes; without, the accumulators pass on as range-checked 16-bit
    values.
    """
    if thresholds is None:
        return lambda accs: check_accum_array(accs, ACCUM_BITS).astype(np.int32)
    mat, inv = build_threshold_matrix(thresholds)
    return lambda accs: apply_threshold_matrix(accs, mat, inv)


class Stage:
    """Base class: counters, pending-output bookkeeping, emission.

    Pending output is queued per destination FIFO. A stage with two
    outputs (a join feeding both the skip chain and the next conv) must
    not let a momentarily full skip FIFO hold up codes bound elsewhere:
    the codes are what ultimately drain that skip FIFO, so serializing
    the two would deadlock. Order is still preserved per FIFO.
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
        self.pending = {}  # fifo -> deque of [array, offset]

    def _fill_value(self) -> int:
        return self.real_el + self.pad_el

    def _emit(self, fifo, arr: np.ndarray):
        if self.fill_el is None:
            self.fill_el = self._fill_value()
        if fifo is None:
            return
        self.pending.setdefault(fifo, deque()).append([arr, 0])

    def _flush(self) -> bool:
        progressed = False
        for fifo, queue in self.pending.items():
            while queue:
                slot = queue[0]
                taken = fifo.push(slot[0][slot[1]:])
                if taken:
                    progressed = True
                    slot[1] += taken
                if slot[1] < len(slot[0]):
                    break
                queue.popleft()
        return progressed

    @property
    def has_pending(self) -> bool:
        return any(self.pending.values())

    @property
    def finished(self) -> bool:
        return self.ingest_done and not self.has_pending

    def step(self) -> bool:
        raise NotImplementedError


class WindowedStage(Stage):
    """Common machinery for stages that slide a K x K window.

    The ingest cursor walks the padded coordinate grid in scan order.
    Pad positions inject pad_value without consuming input; they still
    cost one input unit, since the real stream is halted while the pad
    element is fed in. After each completed pixel the trigger rule fires
    at most one output position.
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
        self.lbuf = LineBuffer(buffer_capacity, name=name)
        self.pad_chunk = np.full(c, pad_value, dtype=np.int32)
        self.cursor = 0  # padded pixel index
        self.partial_have = 0
        # window gather pattern relative to the top-left element
        rows = (np.arange(k) * self.wp)[:, None] + np.arange(k)[None, :]
        self.win_offsets = (rows.reshape(-1, 1) * c + np.arange(c)[None, :]).reshape(-1)

    def _compute(self, window: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _fire(self, pr: int, pc: int):
        r0 = pr - (self.k - 1)
        c0 = pc - (self.k - 1)
        if r0 < 0 or c0 < 0 or r0 % self.s or c0 % self.s:
            return
        base = (r0 * self.wp + c0) * self.in_shape.c
        window = self.lbuf.gather(base + self.win_offsets)
        self._emit(self.out_fifo, self._compute(window))

    def step(self) -> bool:
        progressed = self._flush()
        if self.has_pending:
            return progressed
        c = self.in_shape.c
        total_px = self.hp * self.wp
        while self.cursor < total_px:
            pr, pc = divmod(self.cursor, self.wp)
            in_pad = (pr < self.p or pr >= self.p + self.in_shape.h
                      or pc < self.p or pc >= self.p + self.in_shape.w)
            if in_pad:
                self.lbuf.push(self.pad_chunk)
                self.pad_el += c
            else:
                got = self.in_fifo.pop(c - self.partial_have)
                if len(got):
                    self.lbuf.push(got)
                    self.partial_have += len(got)
                    self.real_el += len(got)
                    progressed = True
                if self.partial_have < c:
                    return progressed
                self.partial_have = 0
            progressed = True
            self.cursor += 1
            self._fire(pr, pc)
            if self.has_pending:
                self._flush()
                if self.has_pending:
                    return progressed
        self.ingest_done = True
        return progressed


class ConvStage(WindowedStage):
    """Binarized convolution over activation codes.

    Per valid position the input halts for out_ch compute cycles, one
    output channel per cycle. The dot products run on packed bit planes:
    the window codes are split into n planes and each plane is combined
    with the packed weights by AND + popcount.
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

    def _compute(self, window):
        accs = packed_dot(self.weights.entries, window, self.in_shape.bits)
        self.compute_cycles += self.weights.out_ch
        return self.activate(accs)


class FirstConvStage(WindowedStage):
    """High precision first layer: 8-bit pixels under +/-1 weights.

    Accumulation is plain signed add/subtract, expressed as an integer
    matrix-vector product. Internal accumulators are wider than 16 bits;
    only values that cross an accumulator stream are range checked.
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
        self.w_mat = weights.signed_matrix()
        self.activate = activation(thresholds)

    def _compute(self, window):
        accs = self.w_mat @ window.astype(np.int64)
        self.compute_cycles += self.weights.out_ch
        return self.activate(accs)


class MaxPoolStage(WindowedStage):
    """Channelwise window max. Free: output appears on the cycle the last
    contributing input arrives, no compute halt."""

    def __init__(self, name, in_shape, out_shape, k, s, p=0, buffer_capacity=None):
        super().__init__(name, "maxpool", in_shape, out_shape, k, s, p,
                         pad_value=0, buffer_capacity=buffer_capacity)

    def _compute(self, window):
        return window.reshape(self.k * self.k, -1).max(axis=0)


class AvgPoolStage(WindowedStage):
    """Channelwise window mean, rounding half away from zero.

    Divides by the full window size including pads. Emits accumulators;
    code inputs are widened (their integer values are unchanged).
    """

    def __init__(self, name, in_shape, out_shape, k, s, p=0, buffer_capacity=None):
        super().__init__(name, "avgpool", in_shape, out_shape, k, s, p,
                         pad_value=0, buffer_capacity=buffer_capacity)

    def _compute(self, window):
        sums = window.reshape(self.k * self.k, -1).astype(np.int64).sum(axis=0)
        m = self.k * self.k
        rounded = np.sign(sums) * ((2 * np.abs(sums) + m) // (2 * m))
        return rounded.astype(np.int32)


class ResidualJoinStage(Stage):
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
        self.thr_mat, self.thr_inv = build_threshold_matrix(thresholds)
        self.el_total = shape.elements
        self.el_done = 0
        self.stalled_on_skip = 0

    def _fill_value(self):
        # elementwise: the first output exists once the first pair is in
        return self._chunk_base + 1

    def step(self) -> bool:
        progressed = self._flush()
        if self.has_pending:
            return progressed
        while self.el_done < self.el_total:
            want = self.el_total - self.el_done
            avail = min(self.in_fifo.avail, self.skip_fifo.avail, want)
            if avail == 0:
                if self.in_fifo.avail and not self.skip_fifo.avail:
                    self.stalled_on_skip += 1
                return progressed
            self._chunk_base = self.el_done
            reg = self.in_fifo.pop(avail).astype(np.int64)
            skip = self.skip_fifo.pop(avail).astype(np.int64)
            sums = check_accum_array(reg + skip, ACCUM_BITS)
            chans = (self.el_done + np.arange(avail)) % self.in_shape.c
            codes = apply_threshold_matrix(sums, self.thr_mat[chans],
                                           self.thr_inv[chans])
            self.el_done += avail
            self.real_el += avail
            self._emit(self.skip_out_fifo, sums.astype(np.int32))
            self._emit(self.out_fifo, codes)
            progressed = True
            self._flush()
            if self.has_pending:
                return progressed
        self.ingest_done = True
        return progressed


class TeeWidenStage(Stage):
    """Splits a code stream at the start of a residual run.

    Codes pass through unchanged on the regular path; the same values,
    widened to accumulators, seed the skip chain.
    """

    def __init__(self, name, shape):
        super().__init__(name, "tee", shape, shape)
        self.skip_out_fifo = None
        self.el_total = shape.elements
        self.el_done = 0

    def _fill_value(self):
        return self._chunk_base + 1

    def step(self) -> bool:
        progressed = self._flush()
        if self.has_pending:
            return progressed
        while self.el_done < self.el_total:
            self._chunk_base = self.el_done
            got = self.in_fifo.pop(self.el_total - self.el_done)
            if not len(got):
                return progressed
            self.el_done += len(got)
            self.real_el += len(got)
            self._emit(self.skip_out_fifo, got.copy())
            self._emit(self.out_fifo, got)
            progressed = True
            self._flush()
            if self.has_pending:
                return progressed
        self.ingest_done = True
        return progressed


class SkipDownsampleStage(Stage):
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
        self.el_total = in_shape.elements
        self.el_done = 0
        self.extra = out_shape.c - in_shape.c

    def _fill_value(self):
        return self._chunk_base + 1

    def step(self) -> bool:
        progressed = self._flush()
        if self.has_pending:
            return progressed
        c = self.in_shape.c
        w = self.in_shape.w
        while self.el_done < self.el_total:
            px = self.el_done // c
            have = self.el_done % c
            self._chunk_base = self.el_done
            got = self.in_fifo.pop(c - have)
            if not len(got):
                return progressed
            self.el_done += len(got)
            self.real_el += len(got)
            progressed = True
            r, col = divmod(px, w)
            if r % self.s == 0 and col % self.s == 0:
                self._emit(self.out_fifo, got)
                if have + len(got) == c and self.extra:
                    self._emit(self.out_fifo, np.zeros(self.extra, dtype=np.int32))
                self._flush()
                if self.has_pending:
                    return progressed
        self.ingest_done = True
        return progressed


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
        self.el_done = 0
        self.w_mat = None if in_shape.kind == "code" else weights.signed_matrix()

    def _accumulate(self) -> np.ndarray:
        if self.w_mat is None:
            return packed_dot(self.weights.entries, self.flat, self.in_shape.bits)
        return self.w_mat @ self.flat.astype(np.int64)

    def step(self) -> bool:
        progressed = self._flush()
        if self.has_pending:
            return progressed
        total = self.in_shape.elements
        while self.el_done < total:
            got = self.in_fifo.pop(total - self.el_done)
            if not len(got):
                return progressed
            self.flat[self.el_done:self.el_done + len(got)] = got
            self.el_done += len(got)
            self.real_el += len(got)
            progressed = True
        if not self.ingest_done:
            accs = self._accumulate()
            self.compute_cycles += self.weights.out_ch
            self._emit(self.out_fifo, self.activate(accs))
            self.ingest_done = True
            self._flush()
            progressed = True
        return progressed
