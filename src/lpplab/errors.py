import copyreg
import json


class DomainError(ValueError):
    """An endpoint lies outside the environment or is unreachable."""


class ParameterError(ValueError):
    """An invalid model or operation parameter."""


def serialize_instance(model, detail: dict) -> str:
    """Self-contained JSON replay of a failing instance."""
    return json.dumps({"model": model.descriptor(), **detail}, sort_keys=True, default=str)


class InvariantError(AssertionError):
    """An internal invariant failed; ``replay`` is the instance as JSON.

    ``model.model_from_descriptor(json.loads(err.replay)["model"])``
    rebuilds the environment.
    """

    def __init__(self, message: str, model, **detail):
        self.replay = serialize_instance(model, detail)
        super().__init__(f"{message}: {self.replay}")

    def __reduce__(self):
        # rebuild without __init__, which needs the model: the message is
        # in args and the replay in __dict__
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__
