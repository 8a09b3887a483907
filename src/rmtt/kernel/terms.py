"""Term and type syntax for the framework kernel.

Variables are de Bruijn indices (0 = innermost binder).  Types are
either applications of declared sort constants to term spines, or
dependent products whose domain must be an application of a
representable sort.  Terms are variables, fully applied constants,
framework application and framework lambda.

Expressions are hash-consed (Filliâtre and Conchon, *Type-safe modular
hash-consing*, 2006): each constructor looks its class and fields up in
one intern table and returns the live node already there, so equal
expressions are one object, and `==` and `hash` are identity's, O(1)
whatever the size.  Nodes cannot be assigned to, a `Const` or `SortApp`
spine is always a tuple, and `repr` reads like a dataclass's,
`Const(head='c', args=())`.  The table holds its nodes weakly, so it is
bounded by the live terms.

Each node also carries `loose`, its loose-variable bound (Lean 4's
`Expr.looseBVarRange`): one more than the largest de Bruijn index free
in it, 0 for a closed node.  It is derived from the children when the
node is made and is not part of the intern key.

`map_vars` is the single traversal that rebuilds an expression by its
variables: shifting, substitution, simultaneous instantiation and the
closing of rule variables are each one `on_var` given to it.  Its
contract is that every `on_var` maps Var(i) met under k binders to
itself for i < k, so a subterm whose `loose` is at most its binder depth
is returned as it is, unwalked.  `free_vars` is the matching fold that
only reads them.

Matching supports first-order patterns with binders: a pattern variable
occurring under k binders matches a subject that can be unshifted by k
(no capture), and repeated pattern variables require syntactic equality
of the matched subjects.
"""

from __future__ import annotations

import weakref

# Every live expression node, keyed by (class, *fields).  It holds its
# nodes weakly, so a node leaves it with the last reference to it and the
# table is bounded by the live terms; equal live nodes stay identical.
_table = weakref.WeakValueDictionary()


class _Node:
    """An interned expression node: built only through its class, never
    assigned to, equal to another node only if it is that node."""

    __slots__ = ("__weakref__", "loose")
    _fields = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: expressions are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: expressions are immutable")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))


# a node is always true, so each constructor below is one lookup `or` _make
_lookup = _table.get
_set_loose = _Node.loose.__set__


def _spine_loose(args):
    return max([a.loose for a in args], default=0)


def _make(cls, key, values, loose):
    """A new node of class cls with these field values and loose-variable
    bound, entered under key."""
    node = object.__new__(cls)
    for setter, value in zip(cls._setters, values):
        setter(node, value)
    _set_loose(node, loose)
    _table[key] = node
    return node


class Var(_Node):
    __slots__ = _fields = ("index",)

    def __new__(cls, index):
        key = (cls, index)
        return _lookup(key) or _make(cls, key, (index,), index + 1)


class Const(_Node):
    __slots__ = _fields = ("head", "args")

    def __new__(cls, head, args=()):
        args = tuple(args)
        key = (cls, head, args)
        return _lookup(key) or _make(cls, key, (head, args), _spine_loose(args))


class App(_Node):
    __slots__ = _fields = ("fun", "arg")

    def __new__(cls, fun, arg):
        key = (cls, fun, arg)
        return _lookup(key) or _make(cls, key, (fun, arg), max(fun.loose, arg.loose))


class Lam(_Node):
    __slots__ = _fields = ("dom", "body")  # dom is a TypeExpr

    def __new__(cls, dom, body):
        key = (cls, dom, body)
        return _lookup(key) or _make(cls, key, (dom, body), max(dom.loose, body.loose - 1))


class SortApp(_Node):
    __slots__ = _fields = ("head", "args")

    def __new__(cls, head, args=()):
        args = tuple(args)
        key = (cls, head, args)
        return _lookup(key) or _make(cls, key, (head, args), _spine_loose(args))


class PiType(_Node):
    __slots__ = _fields = ("dom", "cod")

    def __new__(cls, dom, cod):
        key = (cls, dom, cod)
        return _lookup(key) or _make(cls, key, (dom, cod), max(dom.loose, cod.loose - 1))


def map_vars(t, on_var, depth=0):
    """Rebuild t, replacing each Var(i) met under k binders (counted from
    depth) with on_var(i, k).  The one traversal that rebuilds expressions
    by variable; shift, subst and instantiate_many are instances of it.
    on_var(i, k) must be Var(i) for i < k, so a subterm with no variable
    free above its binders is returned as it is."""
    if t.loose <= depth:
        return t
    cls = type(t)
    if cls is Var:
        return on_var(t.index, depth)
    if cls is App:
        return App(map_vars(t.fun, on_var, depth), map_vars(t.arg, on_var, depth))
    if cls is Const or cls is SortApp:
        return cls(t.head, tuple([map_vars(a, on_var, depth) for a in t.args]))
    if cls is Lam:
        return Lam(map_vars(t.dom, on_var, depth), map_vars(t.body, on_var, depth + 1))
    if cls is PiType:
        return PiType(map_vars(t.dom, on_var, depth), map_vars(t.cod, on_var, depth + 1))
    raise TypeError(f"not an expression: {t!r}")


def shift(t, d, cutoff=0):
    """Add d to every free variable index at or above cutoff."""
    if not d:
        return t
    return map_vars(t, lambda i, k: Var(i + d) if i >= k else Var(i), cutoff)


def subst(t, j, s):
    """Substitute s for Var(j), lowering the indices above j."""

    def on_var(i, k):
        if i == j + k:
            return shift(s, k)
        return Var(i - 1) if i > j + k else Var(i)

    return map_vars(t, on_var)


def instantiate_many(t, args):
    """Simultaneous substitution Var(n-1-k) := args[k] for an expression
    under n = len(args) binders."""
    n = len(args)

    def on_var(i, k):
        if i < k:
            return Var(i)
        if i < k + n:
            return shift(args[n - 1 - (i - k)], k)
        return Var(i - n)

    return map_vars(t, on_var)


def free_vars(t, depth=0, acc=None):
    if acc is None:
        acc = set()
    if t.loose <= depth:
        return acc
    if isinstance(t, Var):
        if t.index >= depth:
            acc.add(t.index - depth)
    elif isinstance(t, (Const, SortApp)):
        for a in t.args:
            free_vars(a, depth, acc)
    elif isinstance(t, App):
        free_vars(t.fun, depth, acc)
        free_vars(t.arg, depth, acc)
    elif isinstance(t, Lam):
        free_vars(t.dom, depth, acc)
        free_vars(t.body, depth + 1, acc)
    elif isinstance(t, PiType):
        free_vars(t.dom, depth, acc)
        free_vars(t.cod, depth + 1, acc)
    return acc


def term_size(t) -> int:
    """Node count; lambda domains are forced annotations and do not count."""
    if isinstance(t, Var):
        return 1
    if isinstance(t, (Const, SortApp)):
        return 1 + sum(term_size(a) for a in t.args)
    if isinstance(t, App):
        return term_size(t.fun) + term_size(t.arg)
    if isinstance(t, Lam):
        return 1 + term_size(t.body)
    if isinstance(t, PiType):
        return 1 + term_size(t.dom) + term_size(t.cod)
    raise TypeError(f"not an expression: {t!r}")


def match(pattern, subject, bindings, depth=0):
    """First-order matching with binders.

    Pattern variables are de Bruijn indices into the rule context,
    appearing as Var(i) with i >= depth at binder depth `depth`.  A
    match binds rule variable i - depth to the subject unshifted by
    depth; subjects with free variables below depth fail (no capture).
    Repeated variables must match syntactically equal subjects."""
    if isinstance(pattern, Var):
        if pattern.index < depth:
            return isinstance(subject, Var) and subject.index == pattern.index
        v = pattern.index - depth
        if depth:
            if any(i < depth for i in free_vars(subject)):
                return False
            subject = shift(subject, -depth)
        if v in bindings:
            return bindings[v] == subject
        bindings[v] = subject
        return True
    if isinstance(pattern, Const):
        return (
            isinstance(subject, Const)
            and subject.head == pattern.head
            and len(subject.args) == len(pattern.args)
            and all(match(p, s, bindings, depth) for p, s in zip(pattern.args, subject.args))
        )
    if isinstance(pattern, SortApp):
        return (
            isinstance(subject, SortApp)
            and subject.head == pattern.head
            and len(subject.args) == len(pattern.args)
            and all(match(p, s, bindings, depth) for p, s in zip(pattern.args, subject.args))
        )
    if isinstance(pattern, App):
        return (
            isinstance(subject, App)
            and match(pattern.fun, subject.fun, bindings, depth)
            and match(pattern.arg, subject.arg, bindings, depth)
        )
    if isinstance(pattern, Lam):
        return (
            isinstance(subject, Lam)
            and match(pattern.dom, subject.dom, bindings, depth)
            and match(pattern.body, subject.body, bindings, depth + 1)
        )
    if isinstance(pattern, PiType):
        return (
            isinstance(subject, PiType)
            and match(pattern.dom, subject.dom, bindings, depth)
            and match(pattern.cod, subject.cod, bindings, depth + 1)
        )
    raise TypeError(f"not a pattern: {pattern!r}")


# -- printing ---------------------------------------------------------------


def pretty(t, names=None) -> str:
    """Readable form with invented variable names; round-trips through the
    parser for closed expressions."""
    names = list(names or [])

    def go(t, names):
        def nm(i):
            if i < len(names):
                return names[len(names) - 1 - i]
            return f"?{i - len(names)}"

        if isinstance(t, Var):
            return nm(t.index)
        if isinstance(t, (Const, SortApp)):
            if not t.args:
                return t.head
            return f"{t.head}({', '.join(go(a, names) for a in t.args)})"
        if isinstance(t, App):
            spine = []
            f = t
            while isinstance(f, App):
                spine.append(f.arg)
                f = f.fun
            spine.reverse()
            head = go(f, names)
            if isinstance(f, Lam):
                head = f"({head})"
            return f"{head}({', '.join(go(a, names) for a in spine)})"
        if isinstance(t, Lam):
            v = f"x{len(names)}"
            return f"\\({v} : {go(t.dom, names)}) => {go(t.body, names + [v])}"
        if isinstance(t, PiType):
            v = f"x{len(names)}"
            return f"({v} : {go(t.dom, names)}) -> {go(t.cod, names + [v])}"
        raise TypeError(f"not an expression: {t!r}")

    return go(t, names)


def expr_to_data(t):
    """JSON-able encoding of an expression; inverse of expr_from_data."""
    if isinstance(t, Var):
        return ["var", t.index]
    if isinstance(t, Const):
        return ["const", t.head, [expr_to_data(a) for a in t.args]]
    if isinstance(t, App):
        return ["app", expr_to_data(t.fun), expr_to_data(t.arg)]
    if isinstance(t, Lam):
        return ["lam", expr_to_data(t.dom), expr_to_data(t.body)]
    if isinstance(t, SortApp):
        return ["sort", t.head, [expr_to_data(a) for a in t.args]]
    if isinstance(t, PiType):
        return ["pi", expr_to_data(t.dom), expr_to_data(t.cod)]
    raise TypeError(f"not an expression: {t!r}")


def expr_from_data(d):
    """Inverse of expr_to_data; raises ValueError on anything it does not write."""
    tag, args = (d[0], d[1:]) if isinstance(d, list) and d else (None, ())
    if tag == "var" and len(args) == 1 and type(args[0]) is int and args[0] >= 0:
        return Var(args[0])
    if tag in ("const", "sort") and len(args) == 2 and isinstance(args[0], str) and isinstance(args[1], list):
        return (Const if tag == "const" else SortApp)(args[0], tuple(expr_from_data(a) for a in args[1]))
    if tag in ("app", "lam", "pi") and len(args) == 2:
        return {"app": App, "lam": Lam, "pi": PiType}[tag](expr_from_data(args[0]), expr_from_data(args[1]))
    raise ValueError(f"bad expression encoding: {d!r}")
