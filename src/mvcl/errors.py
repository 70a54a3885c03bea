"""Exception types shared across the package."""


class MvclError(Exception):
    """Base class for all library errors."""


class ViewMismatch(MvclError):
    """Views disagree on sample count, or fewer than two views were given."""


class ParseError(MvclError):
    """A CSV or labels file contains a cell that cannot be parsed."""


class EmptyInput(MvclError):
    """A file or matrix has no usable rows/columns."""


class StatsMismatch(MvclError):
    """Precomputed feature statistics do not match the dataset shape."""


class InvalidSpec(MvclError):
    """Synthetic data specification violates its invariants."""


class LabelsRequired(MvclError):
    """The operation needs class labels but the dataset has none."""


class SplitInfeasible(MvclError):
    """Requested per-class training count does not fit the class sizes."""


class DimError(MvclError):
    """Matrix shapes are inconsistent with each other."""


class NumericError(MvclError):
    """A numeric check encountered a non-finite value."""


class EmptyTrain(MvclError):
    """Nearest-neighbour classification requires a non-empty gallery."""


class BenchmarkError(MvclError):
    """One benchmark repeat failed; the message names the repeat."""


class NumericDivergence(MvclError):
    """Training produced a non-finite loss.

    ``iteration`` is the outer-loop index at which divergence was detected
    (0 means the initial evaluation); ``fit`` is the diverging fit's index in
    its batch (0 for a single dataset).
    """

    def __init__(self, message: str, iteration: int, fit: int = 0):
        super().__init__(message)
        self.iteration = iteration
        self.fit = fit
