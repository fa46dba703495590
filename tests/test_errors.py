import inspect

from handpose import errors


def test_every_error_is_a_handpose_value_error():
    classes = {n: c for n, c in vars(errors).items() if inspect.isclass(c) and issubclass(c, BaseException)}
    assert set(classes) == {"HandposeError", "SchemaViolation", "RectOutOfWindow", "ImageTooSmall", "PatchOutOfFrame"}
    for cls in classes.values():
        assert issubclass(cls, errors.HandposeError) and issubclass(cls, ValueError), cls
