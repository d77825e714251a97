"""Exception hierarchy shared by all unmix modules.

CLI exit-code mapping: caller/input problems (bad shapes, malformed
bundles, impossible requests) exit with 2, numeric/training failures
with 3.  See :mod:`unmix.cli`.
"""


class UnmixError(Exception):
    """Base class for all library errors."""


class InputError(UnmixError):
    """Caller supplied invalid data (off-simplex abundances, band mismatch, ...)."""


class ShapeError(InputError):
    """Operand dimensions are inconsistent."""


class ContractError(InputError):
    """An operation was used outside its contract (e.g. non-scalar loss)."""


class BundleError(InputError):
    """A cube/checkpoint bundle on disk is malformed; carries the offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{message} (field: {field})")
        self.message = message
        self.field = field


class ExtractionError(InputError):
    """Endmember extraction failed (signal subspace rank below P)."""


class NumericError(UnmixError):
    """A numeric procedure failed to converge or underflowed irrecoverably."""


class DomainError(NumericError):
    """Numeric argument outside the mathematical domain of an operation."""


class GenerationError(NumericError):
    """Synthetic data generation could not satisfy its constraints."""


class DegenerateSampleError(NumericError):
    """A sampled abundance vector collapsed onto a simplex vertex."""


class TrainingError(UnmixError):
    """Training failed; carries the offending parameter, entry index, epoch
    and batch when known."""

    def __init__(self, message: str, *, param: str | None = None,
                 index: tuple[int, ...] | None = None,
                 epoch: int | None = None, batch: int | None = None):
        parts = [message]
        if param is not None:
            parts.append(f"parameter={param}"
                         + ("" if index is None else f" index {index}"))
        if epoch is not None:
            parts.append(f"epoch={epoch}")
        if batch is not None:
            parts.append(f"batch={batch}")
        super().__init__("; ".join(parts))
        self.message = message
        self.param = param
        self.index = index
        self.epoch = epoch
        self.batch = batch
        self.last_good: dict | None = None
        self.last_epoch: int | None = None
