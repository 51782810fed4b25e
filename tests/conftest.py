import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Hypothesis imports hypothesis.extra._patching while it reports a failing
# example.  With libcst installed, that import emits a DeprecationWarning
# from mypy_extensions, which `-W error` turns into an INTERNALERROR that
# aborts the session without naming the failed tests.  Importing it here,
# with that one warning ignored, keeps failures reported.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst (or black) not installed: nothing to pre-import
        pass
