"""The backtracking driver every search in the package runs on, and the
one budget that bounds a search and every search nested in it."""


class Inconclusive(Exception):
    """A search or construction stopped on its budget before completing."""


class Budget:
    """At most `limit` steps for the search named `name`.  A search
    charges one step per candidate it tries; a search started inside it
    is handed the same Budget, so the two share one count.  A search
    given no Budget is unbounded."""

    __slots__ = ("name", "limit", "steps")

    def __init__(self, name, limit):
        self.name, self.limit, self.steps = name, limit, 0

    def charge(self):
        self.steps += 1
        if self.steps > self.limit:
            raise Inconclusive(f"{self.name} exceeded its budget of {self.limit} steps")


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
