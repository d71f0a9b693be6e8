"""Streaming layer stages: conv (also first conv and fc), pool, join,
tee, subsample.

Each stage consumes a depth-first pixel stream (channel fastest, then
along the scan line, then across lines) and produces one. Windowed stages
keep only a sliding line buffer of the most recent elements; reading an
element that has already been evicted is a hard fault, which is how the
buffer sizing formula is validated.

Stages are driven by an external scheduler through step(). A step makes
as much progress as the attached FIFOs allow and never blocks. A FIFO
keeps all a stage emits into it and shows its consumer at most its
capacity; a stage that leaves one over capacity stops until the
consumer's pops bring it back down. The step loop is written once, in
Stage; each stage kind supplies _advance(), which consumes one unit of
input and emits what that unit completes. The schedule is that of pops
of at most capacity elements each; where an input holds more, a unit
takes in one pop what such pops would take back to back before one of
them can stop the step. Nothing else touches the FIFOs inside a step, so
no other stage can tell the two apart. For a windowed stage the unit is
a run of pixels inside one padded row: the run is written to the line
buffer at once, and every window it completes is read as one slice of a
strided view of the buffer and computed as one batch. Other stages take
a chunk of elements. All cycle counters are structural (functions of
shapes and the trigger rule alone), so they do not depend on scheduling
order or on how input is batched.

A conv or fc stage that emits codes ends in activation(): the
ThresholdSet that fold_batchnorm derived for its layer's channels,
counted by quant.count_code_floors in the dtype of the stage's
accumulators. A join counts its sums against its ThresholdSet with the
same function. The oracle counts with the same function against the
code floors of BnQuantizer, through which fold_batchnorm also refines
the few channels its float64 candidates cannot decide; nothing here
names the oracle's quantizer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BufferEvictionError, ShapeError
from .quant import (
    FLOAT32_EXACT,
    FLOAT64_EXACT,
    ceil_div,
    check_accum_array,
    count_code_floors,
    floors_as,
    popcount_dot,
)


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


class LineBuffer:
    """Ring buffer over the most recent elements of a depth-first stream.

    Elements are addressed by their absolute position in the stream, so a
    stale read is detected instead of silently returning overwritten
    data. capacity is the sized buffer: a window may only be read if
    each of its elements lies within capacity of the element that
    completed it. The ring may carry slack beyond that, so that windows
    completed early in a batch are still there when the batch is read;
    the slack never makes a window readable that capacity would evict.

    Every window has the geometry given here: rows rows of row_len
    contiguous elements, pitch elements apart (a K x K window over C
    channels is K rows of K * C elements, one padded line of C channels
    apart), so it spans extent = (rows - 1) * pitch + row_len elements.

    The ring is mirrored: it has 2 * size slots, size = capacity + slack,
    and element i is written both at slot i % size and at i % size +
    size. A gathered batch spans fewer than size elements, from its
    oldest element o on, so with base = o - o % size every element i of
    it sits at slot i - base < 2 * size (the mirror copy once i - base
    passes size): the batch is contiguous in the ring. So the windows
    are one read-only as_strided view of the ring, built once, whose
    entry j is the window starting at slot j, and a batch is one slice
    of it.
    """

    def __init__(self, capacity: int, name: str = "linebuffer", slack: int = 0,
                 rows: int = 1, row_len: int = 1, pitch: int = 0):
        if capacity < 1:
            raise ShapeError("line buffer capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.size = capacity + slack
        self.ring = np.zeros(2 * self.size, dtype=np.int32)
        self.total = 0
        self.extent = (rows - 1) * pitch + row_len
        # an undersized capacity may leave no slot a window fits from;
        # gather then faults on the window's width before reading
        slots = max(2 * self.size - self.extent + 1, 0)
        item = self.ring.itemsize
        self.windows = np.lib.stride_tricks.as_strided(
            self.ring, shape=(slots, rows, row_len),
            strides=(item, pitch * item, item), writeable=False)

    def push(self, arr: np.ndarray):
        n = len(arr)
        size = self.size
        if n > size:  # only the newest elements survive
            self.total += n - size
            arr = arr[n - size:]
            n = size
        ring = self.ring
        start = self.total % size
        end = start + n
        # the first copy never wraps: end <= 2 * size
        ring[start:end] = arr
        if end <= size:
            ring[start + size:end + size] = arr
        else:
            ring[start + size:] = arr[:size - start]
            ring[:end - size] = arr[size - start:]
        self.total += n

    def gather(self, starts: range) -> np.ndarray:
        """The windows starting at the absolute element positions of
        starts, a non-empty range in completion order, as a read-only
        (N, rows, row_len) view of the ring. The next push overwrites
        it, so a reader copies what it keeps.
        """
        # check before slicing: a slice past the view's end would quietly
        # return fewer windows
        oldest = starts.start
        if self.extent > self.capacity or oldest < self.total - self.size:
            raise BufferEvictionError(
                "%s: element %d already evicted (capacity %d, ingested %d)"
                % (self.name, oldest, self.capacity, self.total))
        last = starts[-1]
        if last + self.extent > self.total:
            raise ShapeError("%s: read past ingested elements" % self.name)
        slot = oldest % self.size
        return self.windows[slot:slot + last - oldest + 1:starts.step]


def activation(thresholds, dtype):
    """The epilogue of a conv or fc stage, as a function of its
    accumulators, which come in dtype: the dtype of the stage's dot
    product, int64 for popcount_dot.

    With the layer's ThresholdSet it is the fused batchnorm + activation
    and emits codes, uint8 for up to 8 bits: its sign and values are
    rounded to dtype once, here (quant.floors_as), and the values laid
    out once as the C-contiguous (levels, 1, C) table that
    quant.count_code_floors compares each (N, C) batch of accumulators
    with as it is, in their own dtype. Without, the accumulators pass
    on as range-checked 16-bit values. The codes are exact without
    quant.check_floor_range: a float product's accumulators stay below
    the first integer its float cannot hold (float_signed_matrix), and
    popcount_dot's are int64 below 2**n * K.
    """
    if thresholds is None:
        return lambda accs: check_accum_array(accs).astype(np.int32)
    sign, values = floors_as(dtype, thresholds.sign, thresholds.values)
    values = values.reshape(len(values), 1, -1)  # a view: values are C-contiguous
    return lambda accs: count_code_floors(accs, sign, values)


class Stage:
    """Base class: the step loop and counters.

    step() is the one step loop, and its order of FIFO calls is the
    schedule. It returns at once if the whole input is ingested or a
    FIFO the stage feeds still holds more than its capacity. Otherwise
    it calls _advance() until that returns False (the input is not
    there), a push leaves a FIFO over capacity or the whole input is
    ingested. It returns whether anything moved, and never blocks. Each
    stage kind supplies only _advance(): consume one unit of input (a
    run of pixels, or a chunk of elements), emit what that unit
    completes, and say whether it moved. The schedule is that of units
    that pop at most an input's capacity each. An input may hold more,
    and then one _advance takes, in one pop, what such pops would take
    back to back up to the first whose emit could stop the step:
    the step stops, returns and leaves every FIFO as those pops would.
    A stage's state changes only inside its own step, and a finished
    stage (input ingested, no FIFO it feeds over capacity) stays
    finished.

    _emit pushes the whole array at once (engine.Fifo keeps it and shows
    the consumer at most capacity), and sets over when that leaves the
    FIFO above capacity. A stage with two outputs (a join feeding both
    the skip chain and the next conv) emits to both before it stops, so
    a momentarily full skip FIFO does not hold up codes bound elsewhere:
    the codes are what ultimately drain that skip FIFO, so serializing
    the two would deadlock. Order is still preserved per FIFO.
    """

    def __init__(self, name: str, in_shape):
        self.name = name
        self.in_shape = in_shape
        self.first_compute = 0  # compute halts before the first output leaves
        # wired by the graph builder
        self.in_fifo = None
        self.out_fifo = None
        self.skip_out_fifo = None
        # structural counters
        self.real_el = 0
        self.pad_el = 0
        self.compute_cycles = 0
        self.fill_el = None  # elements ingested when the first output appeared
        self.ingest_done = False
        self.over = False  # a push left a FIFO it feeds above capacity

    def _emit(self, fifo, arr: np.ndarray):
        if fifo is not None:
            fifo.push(arr)
            if fifo.held > fifo.capacity:
                self.over = True

    def _still_over(self) -> bool:
        """Recheck over against the FIFOs the stage feeds."""
        out, skip = self.out_fifo, self.skip_out_fifo
        self.over = (out is not None and out.held > out.capacity
                     or skip is not None and skip.held > skip.capacity)
        return self.over

    @property
    def finished(self) -> bool:
        return self.ingest_done and not (self.over and self._still_over())

    def step(self) -> bool:
        if (self.over and self._still_over()) or self.ingest_done:
            return False
        progressed = False
        advance = self._advance
        while advance():
            progressed = True
            if self.over or self.ingest_done:
                break
        return progressed


class WindowedStage(Stage):
    """Common machinery for stages that slide a K x K window.

    The ingest cursor walks the padded coordinate grid in scan order.
    The fire rule: a window fires once its bottom-right pixel is in, and
    the rows that hold such pixels are fire_rows, k - 1 + j * s. In a
    firing row the first window from cursor column pc on has left column
    lo = ceil(max(pc - k + 1, 0) / s) * s; _advance finds it once per
    run, sizes its take from it and passes it to _fire, which fires the
    windows from lo on that the run completed. The unit of an _advance
    is a run of pixels inside one padded row: it starts at the cursor
    and ends at the end of the row, where the input FIFO runs dry, or at
    the end of the capacity-wide pop that completes window lo's
    bottom-right pixel. Pops before that one fire nothing, so they
    cannot stop a step, and the fire that could is the run's last act.
    Pad positions inject zeros without consuming input; they still cost
    one input unit each, since the real stream is halted while the pad
    element is fed in. A run is one FIFO pop, one line-buffer write, one
    gather of every window it completed, one _compute over those windows
    and one emitted array. The line buffer knows the window geometry, so
    a gather names only the range of the windows' top-left elements,
    s * C apart, and reads them as one view of the ring. All counters are
    those of a pixel-at-a-time walk: fill_el is taken at the first
    window fired. Each kind supplies _compute: the (N, K, K*C) read-only
    view of N windows, K rows of K*C elements each, to (N, out channels)
    outputs in a new array.
    """

    def __init__(self, name, in_shape, out_shape, k, s, p=0,
                 buffer_capacity: int = None):
        super().__init__(name, in_shape)
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
        self.lbuf = LineBuffer(buffer_capacity, name=name, slack=self.wp * c,
                               rows=k, row_len=k * c, pitch=self.wp * c)
        self.pad_row = np.zeros(self.wp * c, dtype=np.int32)
        self.cursor = 0  # padded pixel index
        self.total_px = self.hp * self.wp
        # the padded pixel indices of the real rows, and the padded rows
        # whose pixels are the bottom-right corners of windows
        self.real_px = range(p * self.wp, (p + in_shape.h) * self.wp)
        self.fire_rows = range(k - 1, self.hp, s)

    def _fire(self, pr: int, lo: int, done_to: int):
        """Fire the windows of firing row pr from left column lo on whose
        bottom-right pixel lies before padded column done_to."""
        k = self.k
        hi = done_to - (k - 1)
        if lo >= hi:
            return
        c = self.in_shape.c
        if self.fill_el is None:
            self.fill_el = (pr * self.wp + lo + k) * c
        row = (pr - k + 1) * self.wp
        windows = self.lbuf.gather(range((row + lo) * c, (row + hi) * c, self.s * c))
        self._emit(self.out_fifo, self._compute(windows).reshape(-1))

    def _advance(self) -> bool:
        cursor = self.cursor
        real_row = cursor in self.real_px
        if real_row and not self.in_fifo.held:
            return False
        c, p, k, wp, pad_row = self.in_shape.c, self.p, self.k, self.wp, self.pad_row
        real_el, pad_el = self.real_el, self.pad_el
        pr, pc = divmod(cursor, wp)
        # the left column of the row's first window from pc on, if it fires
        lo = ceil_div(max(pc - k + 1, 0), self.s) * self.s if pr in self.fire_rows else None
        if real_row:
            w = self.in_shape.w
            left = p - pc if pc < p else 0
            want = (p + w - pc - left) * c - real_el % c
            take = want
            if lo is not None:
                # that window's bottom-right pixel is complete need
                # elements on: take to the end of the capacity-wide pop
                # that completes it
                need = want - (p + w - k - lo) * c
                cap = self.in_fifo.capacity
                take = min(want, ceil_div(max(need, 1), cap) * cap)
            run = got = self.in_fifo.pop(take)
            right = p if len(got) == want else 0
            if left or right:
                run = np.concatenate((pad_row[:left * c], got, pad_row[:right * c]))
            real_el = self.real_el = real_el + len(got)
            pad_el = self.pad_el = pad_el + (left + right) * c
        else:
            run = pad_row[pc * c:]
            pad_el = self.pad_el = pad_el + len(run)
        self.lbuf.push(run)
        cursor = self.cursor = (real_el + pad_el) // c
        done_to = cursor - pr * wp
        if done_to == pc:
            return True  # the run ended inside a pixel
        self.ingest_done = cursor == self.total_px
        if lo is not None:
            self._fire(pr, lo, done_to)
        return True


def float_signed_matrix(name, weights, in_shape) -> np.ndarray:
    """The +/-1 weights as a (K, out_ch) matrix in the narrowest exact
    float, K the fan-in: entry (j, o) is the weight of flat index j of
    output channel o.

    Inputs from in_shape are integers of magnitude below 2**bits, so
    every partial sum of a product with this matrix is an integer below
    2**bits * K. A float32 holds each one exactly while that is at most
    2**24, a float64 while it is at most 2**53, and then the product
    through BLAS is exact in any order; past 2**53 no float is. The
    matrix is unpacked straight from WeightBlock.words into the chosen
    dtype: byte b of word row r holds bits 8 * b .. 8 * b + 7 of that
    row, least significant first.
    """
    reach = (1 << in_shape.bits) * weights.entry_bits
    if reach > FLOAT64_EXACT:
        raise ShapeError("%s: fan-in %d is too wide for an exact float64 product"
                         % (name, weights.entry_bits))
    words = weights.words
    octets = words.view(np.uint8).reshape(len(words), -1, 8).transpose(0, 2, 1)
    bits = np.unpackbits(octets, axis=1, bitorder="little")  # (words, 64, out_ch)
    bits = bits.reshape(-1, weights.out_ch)[:weights.entry_bits]
    dtype = np.float32 if reach <= FLOAT32_EXACT else np.float64
    return np.subtract(bits, 0.5, dtype=dtype, order="C") * dtype(2)  # 1 -> +1, 0 -> -1


# The largest float32 sign matrix a stage over activation codes
# multiplies by; past it the stage runs popcount_dot instead. Set from
# stage step times inside a running resnet18 pipeline, since isolated
# kernel timings favoured the float product on layers where it lost in
# place (single-threaded BLAS, a Xeon with 2 MiB of L2 per core). With
# this cap the float32 product ran the 56- and 28-wide 3x3 convs (0.15
# to 0.6 MB matrices) 1.5-1.9x faster than popcount_dot. With a 4 MiB
# cap the three 14-wide convs with 2.4 MB matrices took 66 ms per frame
# in float32 against 52 ms in popcount_dot: a matrix that outgrows the
# cache it shares with the rest of the pipeline is read from memory on
# every batch of windows.
FLOAT32_SIGNS_MAX_BYTES = 1 << 20


def blas_signs(name, weights, in_shape):
    """The one rule choosing a ConvStage's exact dot product, applied
    once when the stage is built.

    Returns the sign matrix of an exact float product through BLAS, or
    None where the stage runs popcount_dot on WeightBlock.words. A code
    stream takes float32 where that is exact (2**bits * K <= 2**24) and
    the (K, out_ch) float32 matrix is at most FLOAT32_SIGNS_MAX_BYTES,
    and popcount_dot elsewhere. Pixel and accumulator streams have no
    bit planes to count: they take float_signed_matrix, the narrowest
    exact float, and a ShapeError past 2**53.
    """
    if in_shape.kind == "code" and (
            (1 << in_shape.bits) * weights.entry_bits > FLOAT32_EXACT
            or 4 * weights.entry_bits * weights.out_ch > FLOAT32_SIGNS_MAX_BYTES):
        return None
    return float_signed_matrix(name, weights, in_shape)


class ConvStage(WindowedStage):
    """Binarized convolution: every conv, first conv and fc layer.

    Per valid position the input halts for out_ch compute cycles, one
    output channel per cycle. The stage computes the exact dot product
    of its windows with the +/-1 weights in one of two ways, chosen once
    here by blas_signs, as activation() follows the thresholds. Either
    it multiplies the windows by a float sign matrix through BLAS, in
    the narrowest float that keeps every sum exact: float32 for small
    layers over activation codes and for the 8-bit first conv, float64
    for wide accumulator inputs; the product stays in that float, and
    activation() counts its codes there. Or it runs the XNOR/popcount
    datapath (quant.popcount_dot): the weights are already packed into
    64-bit words (WeightBlock.words), the window codes of a run into n
    bit planes of words, and each plane meets each weight row by AND +
    popcount, in int64. Internal accumulators are wider than 16 bits;
    only values that cross an accumulator stream are range checked. The
    windows arrive as a read-only (N, K, K*C) view of the line buffer;
    the float path's astype, or the popcount path's reshape to
    (N, K*K*C), is the one copy of them a fire makes.

    A fully connected layer is a 1x1 conv over a one-pixel stream of
    h*w*c channels (engine.window_shape). The depth-first stream order is
    exactly the flatten order, so that is the same element sequence; the
    line buffer holds the whole frame (line_buffer_capacity(h*w*c, 1, 1)
    = h*w*c) and the single window fires on its last element, which is
    how a fully connected layer collects and computes its frame. A
    window the size of the frame would need h x w windows for non-square
    inputs; a one-pixel stream needs none.
    """

    def __init__(self, name, in_shape, out_shape, weights, s, p,
                 thresholds=None, buffer_capacity=None):
        if weights.in_ch != in_shape.c:
            raise ShapeError("%s: weights expect %d channels, stream has %d"
                             % (name, weights.in_ch, in_shape.c))
        super().__init__(name, in_shape, out_shape, weights.k, s, p,
                         buffer_capacity=buffer_capacity)
        self.out_ch = self.first_compute = weights.out_ch
        signs = blas_signs(name, weights, in_shape)
        if signs is None:
            self.dot = lambda windows: popcount_dot(
                weights.words, windows.reshape(len(windows), -1), in_shape.bits)
        else:
            self.dot = lambda windows: windows.astype(signs.dtype).reshape(
                len(windows), -1) @ signs
        self.activate = activation(thresholds, np.int64 if signs is None else signs.dtype)

    def _compute(self, windows):
        self.compute_cycles += len(windows) * self.out_ch
        return self.activate(self.dot(windows))


class MaxPoolStage(WindowedStage):
    """Channelwise window max. Free: output appears on the cycle the last
    contributing input arrives, no compute halt."""

    def _compute(self, windows):
        # the ufunc itself: ndarray.max goes through a Python wrapper
        return np.maximum.reduce(windows.reshape(len(windows), self.k, self.k, -1),
                                 axis=(1, 2))


class AvgPoolStage(WindowedStage):
    """Channelwise window mean, rounding half away from zero.

    Divides by the full window size including pads. Emits accumulators;
    code inputs are widened (their integer values are unchanged).
    """

    def _compute(self, windows):
        m = self.k * self.k
        sums = windows.reshape(len(windows), self.k, self.k, -1).sum(
            axis=(1, 2), dtype=np.int64)
        rounded = np.sign(sums) * ((2 * np.abs(sums) + m) // (2 * m))
        return rounded.astype(np.int32)


class ElementwiseStage(Stage):
    """Base for stages that map their input element by element.

    Any chunk of input can be consumed and passed on at once, so an
    output exists as soon as the first element is in.
    """

    def __init__(self, name, in_shape):
        super().__init__(name, in_shape)
        self.el_total = in_shape.elements

    def _chunk(self, n: int, m: int) -> int:
        """How many of n elements, n at most what each input holds, one
        _advance takes: what pops of m each, m the smallest input
        capacity, take back to back up to the first whose emit leaves an
        output FIFO over capacity, where the step stops."""
        for fifo in (self.out_fifo, self.skip_out_fifo):
            if fifo is not None:
                n = min(n, ((fifo.capacity - fifo.held) // m + 1) * m)
        return n

    def _ingested(self, n: int):
        self.fill_el = 1
        self.real_el += n
        self.ingest_done = self.real_el == self.el_total


class ResidualJoinStage(ElementwiseStage):
    """Elementwise 16-bit sum of the regular path and the skip path.

    The sum is split two ways: raw accumulators continue down the skip
    chain, and a thresholded copy feeds the next convolution. Both paths
    carry the identical sum. Consumption is pairwise elementwise.

    A chunk is what both inputs hold, up to the rest of the frame, cut
    by ElementwiseStage._chunk. Both inputs carry 16-bit values, so
    their int32 sum is exact and passes on as it is, and its codes are
    exact without quant.check_floor_range. The floors are laid out once,
    as a (levels, 1, C) table. A chunk inside one pixel counts its codes
    against a view of the table's columns for the channels it covers,
    one of whole pixels as (pixels, C) against the whole table, and
    only one that crosses a pixel boundary is zero padded to the pixels
    it touches.

    stalled_on_skip counts the steps whose _advance loop stops with
    regular data waiting and the skip FIFO empty, a step that summed
    some elements first included, so the step schedule, not the data
    alone, decides it. With the skip FIFO at engine.skip_store_elements,
    the fork's whole run-ahead, it has read 0 on every net tested at the
    default FIFO capacities, and at any capacity where a tee or a join
    feeds the skip FIFO. A SkipDownsampleStage feeding it can
    fall a step behind: stopped on its full output, it takes in more
    only at its next step. A few generated residual nets then read 1 at
    other regular capacities, with outputs and cycle reports unchanged.
    """

    def __init__(self, name, shape, thresholds):
        super().__init__(name, shape)
        self.skip_fifo = None
        values = thresholds.values
        self.sign, self.floors = thresholds.sign, values.reshape(len(values), 1, -1)
        self.stalled_on_skip = 0

    def _advance(self) -> bool:
        in_fifo, skip_fifo = self.in_fifo, self.skip_fifo
        n = min(in_fifo.held, skip_fifo.held, self.el_total - self.real_el)
        if not n:
            if in_fifo.held:
                self.stalled_on_skip += 1
            return False
        n = self._chunk(n, min(in_fifo.capacity, skip_fifo.capacity))
        # both inputs are 16-bit, so their int32 sum is exact
        sums = check_accum_array(np.add(in_fifo.pop(n), skip_fifo.pop(n),
                                        dtype=np.int32))
        c, sign, floors = self.in_shape.c, self.sign, self.floors
        head = self.real_el % c
        if head + n <= c:  # inside one pixel
            codes = count_code_floors(sums, sign[head:head + n],
                                      floors[:, 0, head:head + n])
        else:  # whole pixels, zero padded where the chunk crosses into one
            pixels = sums
            if head or n % c:
                pixels = np.zeros(ceil_div(head + n, c) * c, dtype=np.int32)
                pixels[head:head + n] = sums
            codes = count_code_floors(pixels.reshape(-1, c), sign,
                                      floors).reshape(-1)[head:head + n]
        self._ingested(n)
        self._emit(self.skip_out_fifo, sums)
        self._emit(self.out_fifo, codes)
        return True


class TeeWidenStage(ElementwiseStage):
    """Splits a code stream at the start of a residual run.

    Codes pass through unchanged on the regular path; the same values
    seed the skip chain. A chunk is what the input holds, up to the
    rest of the frame, cut by ElementwiseStage._chunk.
    """

    def _advance(self) -> bool:
        in_fifo = self.in_fifo
        n = min(in_fifo.held, self.el_total - self.real_el)
        if not n:
            return False
        got = in_fifo.pop(self._chunk(n, in_fifo.capacity))
        self._ingested(len(got))
        self._emit(self.skip_out_fifo, got)
        self._emit(self.out_fifo, got)
        return True


class SkipDownsampleStage(ElementwiseStage):
    """Adapts a skip stream across a shape change, parameter free.

    Keeps every stride-th pixel and zero fills the new channels. The
    16-bit skip datapath rules out a learned projection here; spatial
    subsampling plus zero padding is the standard parameter-free choice.
    A unit is the rest of one pixel, or what the input holds of it, in
    one pop, and a kept pixel passes on in those parts as they arrive.
    A kept part is cut by ElementwiseStage._chunk at the end of the
    capacity-wide pop whose emit leaves the output over capacity, where
    pops of at most the input's capacity would stop the step; the zero
    fill leaves with a pixel's last part, after which such pops would
    take no more of it either way. A dropped part emits nothing, so it
    is never cut.
    """

    def __init__(self, name, in_shape, out_shape, s):
        super().__init__(name, in_shape)
        if out_shape.c < in_shape.c:
            raise ShapeError("%s: cannot drop skip channels" % name)
        if (in_shape.h - 1) // s + 1 != out_shape.h or (in_shape.w - 1) // s + 1 != out_shape.w:
            raise ShapeError("%s: subsample shapes do not compose" % name)
        self.s = s
        self.zero_fill = np.zeros(out_shape.c - in_shape.c, dtype=np.int32)

    def _advance(self) -> bool:
        c, in_fifo = self.in_shape.c, self.in_fifo
        px, have = divmod(self.real_el, c)
        n = min(c - have, in_fifo.held)
        if not n:
            return False
        r, col = divmod(px, self.in_shape.w)
        kept = r % self.s == 0 and col % self.s == 0
        got = in_fifo.pop(self._chunk(n, in_fifo.capacity) if kept else n)
        self._ingested(len(got))
        if kept:
            if have + len(got) == c and len(self.zero_fill):
                got = np.concatenate([got, self.zero_fill])
            self._emit(self.out_fifo, got)
        return True
