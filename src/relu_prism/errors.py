"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates an operation's contract (rejected input)."""


class ShapeError(InputError):
    """Dimensions of an input do not match the network or dataset."""


class SchemaError(InputError):
    """A file or document does not conform to its expected schema."""


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged with non-finite loss at epoch {epoch}")

    def __reduce__(self):
        # Rebuilt from its epoch: the default would pass the message as one.
        return TrainingDivergedError, (self.epoch,)


class ChildLostError(RuntimeError):
    """A forked child ended without sending its result or its exception."""
