"""The backtracking driver every search in the package runs on."""


def backtrack(k, n, fill):
    """Fill slots k..n-1 in order and yield once per complete filling.
    `fill(k)` is a generator that assigns each accepted value of slot k
    in turn and yields after each, undoing its assignment when done.

    The open `fill` generators are kept on an explicit stack, so the
    number of slots is not bounded by the interpreter's recursion limit."""
    if k == n:
        yield
        return
    stack = [fill(k)]
    while stack:
        for _ in stack[-1]:
            if k + len(stack) == n:
                yield
            else:
                stack.append(fill(k + len(stack)))
            break
        else:
            stack.pop()
