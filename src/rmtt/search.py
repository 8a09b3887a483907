"""The backtracking driver every search in the package runs on."""


def backtrack(k, n, fill):
    """Fill slots k..n-1 in order and yield once per complete filling.
    `fill(k)` is a generator that assigns each accepted value of slot k
    in turn and yields after each, undoing its assignment when done."""
    if k == n:
        yield
        return
    for _ in fill(k):
        yield from backtrack(k + 1, n, fill)
