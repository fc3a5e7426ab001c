import pytest

from tinytraj import _kernel


@pytest.fixture
def forget_kernel():
    """Forgets the process's one load of the compiled kernel, and the parser
    and the allocator chosen on it, before and after the test, and gives the
    test the function that does it: a test that breaks a build step or moves
    the build cache calls it to make the choice again."""
    caches = (_kernel._library, _kernel.load_parser, _kernel._allocator)

    def forget():
        for cached in caches:
            cached.cache_clear()

    forget()
    yield forget
    forget()
