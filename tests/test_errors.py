import pickle

import numpy as np
import pytest

from hardstab import bounds, cli, experiments, lmi, numerics, plotting, synthesis, systems
from hardstab.numerics import DareError, RootFindingError
from hardstab.systems import DivergedTrajectoryError

# every exception class the package defines, found by scanning its modules,
# so a new class is checked without being listed here
ERROR_CLASSES = sorted(
    {
        obj
        for module in (bounds, cli, experiments, lmi, numerics, plotting, synthesis, systems)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__.startswith("hardstab.")
    },
    key=lambda cls: cls.__qualname__,
)
# constructor arguments of the classes that do not take one message
ARGS = {
    DivergedTrajectoryError: (3, (1, 2)),
    RootFindingError: ([1.0, 2.0], 500),
    DareError: ("stalled above tolerance", 9.5e5),
}
ATTRIBUTES = ("step", "seed_record", "coeffs", "iterations", "residual")


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exception_survives_pickling(cls):
    # a process pool sends a worker's exception back pickled
    error = cls(*ARGS.get(cls, ("message",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    for name in ATTRIBUTES:
        assert hasattr(copy, name) == hasattr(error, name)
        if hasattr(error, name):
            assert type(getattr(copy, name)) is type(getattr(error, name))
            np.testing.assert_equal(getattr(copy, name), getattr(error, name))
