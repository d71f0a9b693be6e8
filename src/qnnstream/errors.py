"""Exception types shared across the package."""


class QnnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(QnnError):
    """Tensor or stream dimensions do not compose."""


class QuantizationError(QnnError):
    """Invalid quantizer configuration (bad d, degenerate channel, ...)."""


class AccumOverflowError(QnnError):
    """A value left the signed range of its declared accumulator width."""


class BufferEvictionError(QnnError):
    """A window read touched an element the line buffer already evicted."""


class DeadlockError(QnnError):
    """No stage can fire, input is exhausted, output incomplete.

    The message names the blocked stages and every full and every empty
    FIFO, each given as "name occupancy/capacity".
    """

    def __init__(self, blocked, full, empty):
        lists = tuple(", ".join(names) or "none" for names in (blocked, full, empty))
        super().__init__("pipeline deadlock; blocked stages: %s; full FIFOs: %s;"
                         " empty FIFOs: %s" % lists)


class NetdescError(QnnError):
    """Problem in a network description file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class ParamsError(QnnError):
    """Parameter blob inconsistent with the network description."""


class PartitionError(QnnError):
    """No feasible device assignment under the given budget."""
