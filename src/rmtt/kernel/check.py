"""Signatures: parsing, type checking and fuel-bounded normalization.

A signature is an ordered list of constant declarations and oriented
equation rules.  Declarations are `name : (telescope) -> target` where
the target is `sort`, `rep-sort`, or a type expression (a term
constant).  Rules are `lhs ~> rhs` with a constant-headed left side;
the rule context (the pattern variables and their types) is inferred
from the left side, and both sides must have convertible types in it.

Definitional equality is oriented rewriting with the signature's rules
plus framework beta for application, bounded by fuel; running out of
fuel raises NormalizationBudget rather than guessing.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..search import Inconclusive
from .terms import (
    App,
    Const,
    Lam,
    PiType,
    SortApp,
    Var,
    free_vars,
    instantiate_many,
    map_vars,
    match,
    pretty,
    shift,
    subst,
)


class KernelError(Exception):
    pass


class ParseError(KernelError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ScopeError(KernelError):
    pass


class TypeCheckError(KernelError):
    pass


class NormalizationBudget(KernelError, Inconclusive):
    """No normal form within the fuel budget."""


SORT = "sort"
REP_SORT = "rep-sort"


@dataclass(frozen=True)
class Declaration:
    name: str
    telescope: tuple  # of TypeExpr, outermost first
    target: object  # SORT | REP_SORT | TypeExpr

    @property
    def arity(self):
        return len(self.telescope)

    @property
    def is_rep_sort(self):
        return self.target == REP_SORT

    @property
    def is_term(self):
        return not isinstance(self.target, str)


@dataclass(frozen=True)
class Rule:
    context: tuple  # of TypeExpr, outermost first
    lhs: object
    rhs: object

    @property
    def head(self):
        return self.lhs.head


# entries a per-signature memo may hold before it is emptied
CACHE_LIMIT = 1 << 16


def bounded(cache):
    """The memo, emptied first if it holds CACHE_LIMIT entries.  Called at
    top-level entry points, or just before a store into a memo that only
    its own function reads (`apply_subst`, `infer_term`), so no
    computation loses entries it still reads."""
    if len(cache) >= CACHE_LIMIT:
        cache.clear()
    return cache


class Signature:
    """Immutable after validation; carries the memos of normal forms,
    substitutions and types, and the enumeration memos of `contexts`,
    all listed in `memos`."""

    def __init__(self, items=(), notes=()):
        self.items = tuple(items)  # Declaration | Rule in declaration order
        self.notes = tuple(notes)
        self.decls = {}
        self.rules_by_head = {}
        for it in self.items:
            if isinstance(it, Declaration):
                self.decls[it.name] = it
            else:
                self.rules_by_head.setdefault(it.head, []).append(it)
        self._declarations = tuple(it for it in self.items if isinstance(it, Declaration))
        self.term_decls = tuple(d for d in self._declarations if d.is_term)
        self.sort_decls = tuple(d for d in self._declarations if not d.is_term)
        # every per-signature memo; each is bounded by CACHE_LIMIT
        self.memos = (
            self._nf_cache, self._subst_cache, self._type_cache, self._term_enum_cache, self._buckets
        ) = ({}, {}, {}, {}, {})

    def declarations(self):
        return self._declarations

    def rules(self):
        return [it for it in self.items if isinstance(it, Rule)]

    def extended(self, new_items, note=None) -> "Signature":
        notes = self.notes + ((note,) if note else ())
        return Signature(self.items + tuple(new_items), notes)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.items == other.items

    def __hash__(self):
        return hash(self.items)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>[ \t]+)|(?P<comment>#[^\n]*)|(?P<nl>\n)|(?P<arrow2>~>)|(?P<arrow>->)|(?P<darrow>=>)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_'\-]*)|(?P<sym>[():,;\\])"
)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind == "nl":
            tokens.append(("nl", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append((kind, val, line, col))
            col += len(val)
        i = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# Input nested more than MAX_NESTING levels deep is malformed.  A level is
# a term or type inside another, or one more argument list applied to an
# expression.  Resolution, infer_term, normalize and pretty each recurse a
# few interpreter frames per level, so input within the limit stays well
# inside Python's default stack limit in all of them.
MAX_NESTING = 200


def _nested(parse):
    """A parse method whose call is one level of nesting."""

    def counted(self):
        self.nest()
        try:
            return parse(self)
        finally:
            self.nesting -= 1

    return counted


class _Parser:
    """Produces a raw named syntax; names are resolved afterwards."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def nest(self):
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            t = self.peek()
            raise ParseError(f"expression nested too deeply (over {MAX_NESTING} levels)", t[2], t[3])

    @contextmanager
    def depth_guard(self):
        """Input nested past the interpreter's stack, while parsing or
        resolving it, is a ParseError at the token reached.  The nesting
        limit comes first; this is the backstop."""
        try:
            yield
        except RecursionError:
            t = self.toks[min(self.pos, len(self.toks) - 1)]
            raise ParseError("expression nested too deeply", t[2], t[3]) from None

    def peek(self, k=0):
        return self.toks[self.pos + k]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def skip_newlines(self):
        while self.peek()[0] == "nl" or (self.peek()[0] == "sym" and self.peek()[1] == ";"):
            self.next()

    def expect(self, kind, val=None):
        t = self.next()
        if t[0] != kind or (val is not None and t[1] != val):
            raise ParseError(f"expected {val or kind}, found {t[1]!r}", t[2], t[3])
        return t

    def at_sym(self, s):
        t = self.peek()
        return t[0] == "sym" and t[1] == s

    def parse_signature_items(self):
        items = []
        self.skip_newlines()
        while self.peek()[0] != "eof":
            items.append(self.parse_item())
            self.skip_newlines()
        return items

    def parse_item(self):
        # declaration:  name : ...     rule:  term ~> term
        start = self.pos
        if self.peek()[0] == "name" and self.peek(1)[0] == "sym" and self.peek(1)[1] == ":":
            name = self.next()[1]
            self.next()  # ':'
            tele, target = self.parse_decl_type()
            return ("decl", name, tele, target)
        lhs = self.parse_term()
        t = self.next()
        if t[0] != "arrow2":
            raise ParseError("expected '~>' in rule", t[2], t[3])
        rhs = self.parse_term()
        return ("rule", lhs, rhs)

    def parse_decl_type(self):
        tele = []
        while self.at_sym("(") and self._looks_like_binding():
            tele.extend(self.parse_binding_group())
            self.expect("arrow")
        t = self.peek()
        if t[0] == "name" and t[1] in (SORT, REP_SORT) and not self._next_is_call():
            self.next()
            return tele, t[1]
        return tele, self.parse_type()

    def _next_is_call(self):
        return self.peek(1)[0] == "sym" and self.peek(1)[1] == "("

    def _looks_like_binding(self):
        # '(' name ':' ...  begins a telescope segment
        return (
            self.peek(1)[0] == "name"
            and self.peek(2)[0] == "sym"
            and self.peek(2)[1] == ":"
        )

    def parse_binding_group(self):
        self.expect("sym", "(")
        out = []
        while True:
            name = self.expect("name")[1]
            self.expect("sym", ":")
            ty = self.parse_type()
            out.append((name, ty))
            if self.at_sym(","):
                self.next()
                continue
            self.expect("sym", ")")
            return out

    @_nested
    def parse_type(self):
        if self.at_sym("(") and self._looks_like_binding():
            group = self.parse_binding_group()
            self.expect("arrow")
            cod = self.parse_type()
            for name, dom in reversed(group):
                cod = ("pi", name, dom, cod)
            return cod
        t = self.expect("name")
        args = []
        if self.at_sym("("):
            args = self.parse_args()
        return ("tcall", t[1], args, t[2], t[3])

    def parse_args(self):
        self.expect("sym", "(")
        args = []
        if not self.at_sym(")"):
            while True:
                args.append(self.parse_term())
                if self.at_sym(","):
                    self.next()
                    continue
                break
        self.expect("sym", ")")
        return args

    @_nested
    def parse_term(self):
        t = self.peek()
        if t[0] == "sym" and t[1] == "\\":
            self.next()
            self.expect("sym", "(")
            name = self.expect("name")[1]
            self.expect("sym", ":")
            dom = self.parse_type()
            self.expect("sym", ")")
            self.expect("darrow")
            body = self.parse_term()
            return ("lam", name, dom, body)
        if t[0] == "sym" and t[1] == "(":
            self.next()
            inner = self.parse_term()
            self.expect("sym", ")")
            return self._trailers(inner)
        tok = self.expect("name")
        expr = ("call", tok[1], self.parse_args() if self.at_sym("(") else [], tok[2], tok[3])
        return self._trailers(expr)

    def _trailers(self, expr):
        outer = self.nesting
        while self.at_sym("("):
            self.nest()
            expr = ("apply", expr, self.parse_args())
        self.nesting = outer
        return expr


class _Resolver:
    """Turns raw named syntax into de Bruijn syntax against a signature
    prefix.  In rule mode, unknown names become rule variables collected
    in first-occurrence order; rule variable k is emitted as a free
    variable just outside the scope, Var(len(scope) + k), until
    _close_rule_vars puts the rule context in binding order."""

    def __init__(self, sig_decls, rule_mode=False):
        self.decls = sig_decls
        self.rule_mode = rule_mode
        self.rule_vars = []  # names in first-occurrence order

    def term(self, raw, scope):
        kind = raw[0]
        if kind == "lam":
            _, name, dom, body = raw
            return Lam(self.type(dom, scope), self.term(body, scope + [name]))
        if kind == "apply":
            _, f, args = raw
            out = self.term(f, scope)
            for a in args:
                out = App(out, self.term(a, scope))
            return out
        if kind == "call":
            _, name, args, line, col = raw
            if name in scope:
                out = Var(scope[::-1].index(name))  # innermost binding wins
                for a in args:
                    out = App(out, self.term(a, scope))
                return out
            if name in self.decls:
                d = self.decls[name]
                if not d.is_term:
                    raise ScopeError(f"{line}:{col}: {name!r} is a sort, not a term")
                if len(args) != d.arity:
                    raise TypeCheckError(
                        f"{line}:{col}: {name!r} expects {d.arity} arguments, got {len(args)}"
                    )
                return Const(name, tuple(self.term(a, scope) for a in args))
            if self.rule_mode:
                if name not in self.rule_vars:
                    self.rule_vars.append(name)
                out = Var(len(scope) + self.rule_vars.index(name))
                for a in args:
                    out = App(out, self.term(a, scope))
                return out
            raise ScopeError(f"{line}:{col}: unbound identifier {name!r}")
        raise KernelError(f"bad raw term {raw!r}")

    def type(self, raw, scope):
        kind = raw[0]
        if kind == "pi":
            _, name, dom, cod = raw
            return PiType(self.type(dom, scope), self.type(cod, scope + [name]))
        if kind == "tcall":
            _, name, args, line, col = raw
            if name not in self.decls:
                raise ScopeError(f"{line}:{col}: unbound identifier {name!r}")
            d = self.decls[name]
            if d.is_term:
                raise ScopeError(f"{line}:{col}: {name!r} is a term constant, not a sort")
            if len(args) != d.arity:
                raise TypeCheckError(
                    f"{line}:{col}: sort {name!r} expects {d.arity} arguments, got {len(args)}"
                )
            return SortApp(name, tuple(self.term(a, scope) for a in args))
        raise KernelError(f"bad raw type {raw!r}")


def _close_rule_vars(expr, n):
    """Reverse the n free rule variables left by the resolver: rule
    variable k, free index k, gets index n-1-k, since the rule context
    binds them outermost-first."""
    return map_vars(expr, lambda i, k: Var(i) if i < k else Var(k + n - 1 - (i - k)))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

DEFAULT_FUEL = 20000


def normalize(sig: Signature, t, fuel=DEFAULT_FUEL):
    """Innermost rewriting to a normal form; idempotent on its results.
    Raises NormalizationBudget when the step budget runs out (or when a
    runaway rule tower exhausts the interpreter stack first)."""
    cache = sig._nf_cache
    cached = cache.get(t)
    if cached is not None:
        return cached
    bounded(cache)  # only a miss stores, so only a miss can reach the limit
    budget = [fuel, fuel]  # the steps left, and the fuel that running out names
    try:
        nf = _norm(sig, t, budget)
        cache[t] = nf
        cache[nf] = nf
    except RecursionError:
        raise NormalizationBudget(f"no normal form within {fuel} rewrite steps (rewrite tower too deep)")
    return nf


def apply_subst(sig: Signature, terms, expr):
    """Instantiate an expression over the target context with the
    substitution's components and normalize; memoised per signature."""
    terms = tuple(terms)
    key = (terms, expr)
    out = sig._subst_cache.get(key)
    if out is None:
        out = normalize(sig, instantiate_many(expr, terms))
        bounded(sig._subst_cache)[key] = out
    return out


def _norm(sig, t, budget):
    cached = sig._nf_cache.get(t)
    if cached is not None:
        return cached
    if isinstance(t, Var):
        return t
    if isinstance(t, SortApp):
        out = SortApp(t.head, tuple(_norm(sig, a, budget) for a in t.args))
        sig._nf_cache[t] = out
        return out
    if isinstance(t, PiType):
        out = PiType(_norm(sig, t.dom, budget), _norm(sig, t.cod, budget))
        sig._nf_cache[t] = out
        return out
    if isinstance(t, Lam):
        out = Lam(_norm(sig, t.dom, budget), _norm(sig, t.body, budget))
        out2 = _head_steps(sig, out, budget)
        sig._nf_cache[t] = out2
        return out2
    if isinstance(t, App):
        out = App(_norm(sig, t.fun, budget), _norm(sig, t.arg, budget))
        out = _head_steps(sig, out, budget)
        sig._nf_cache[t] = out
        return out
    if isinstance(t, Const):
        out = Const(t.head, tuple(_norm(sig, a, budget) for a in t.args))
        out = _head_steps(sig, out, budget)
        sig._nf_cache[t] = out
        return out
    raise TypeError(f"not an expression: {t!r}")


def _head_steps(sig, t, budget):
    stepped = _head_once(sig, t)
    if stepped is None:
        return t
    if budget[0] <= 0:
        raise NormalizationBudget(f"no normal form within {budget[1]} rewrite steps near {pretty(t)}")
    budget[0] -= 1
    return _norm(sig, stepped, budget)


def _head_once(sig, t):
    if isinstance(t, App) and isinstance(t.fun, Lam):
        return subst(t.fun.body, 0, t.arg)
    if not isinstance(t, Const):
        return None
    for rule in sig.rules_by_head.get(t.head, ()):
        bindings = {}
        if match(rule.lhs, t, bindings):
            # bindings are keyed by rule-context de Bruijn indices; variable k
            # (outermost) has index n-1-k, and substitution is simultaneous
            n = len(rule.context)
            ordered = tuple(bindings[n - 1 - k] for k in range(n))
            return instantiate_many(rule.rhs, ordered)
    return None


# ---------------------------------------------------------------------------
# typing
# ---------------------------------------------------------------------------


def conv(sig, a, b, fuel=DEFAULT_FUEL) -> bool:
    return normalize(sig, a, fuel) == normalize(sig, b, fuel)


def is_rep_type(sig: Signature, ty) -> bool:
    return isinstance(ty, SortApp) and sig.decls[ty.head].is_rep_sort


def check_context(sig: Signature, ctx) -> None:
    """Check each type of ctx in the context of the ones before it."""
    acc = ()
    for ty in ctx:
        check_type(sig, acc, ty)
        acc = acc + (ty,)


def check_type(sig: Signature, ctx, ty):
    """ctx: tuple of TypeExpr outermost-first.  Raises on failure."""
    if isinstance(ty, SortApp):
        d = sig.decls.get(ty.head)
        if d is None or d.is_term:
            raise TypeCheckError(f"{ty.head!r} is not a sort")
        _check_spine(sig, ctx, ty.args, d.telescope)
        return
    if isinstance(ty, PiType):
        check_type(sig, ctx, ty.dom)
        if not is_rep_type(sig, ty.dom):
            raise TypeCheckError(
                f"dependent product domain must be a representable sort, got {pretty(ty.dom)}"
            )
        check_type(sig, ctx + (ty.dom,), ty.cod)
        return
    raise TypeCheckError(f"not a type: {ty!r}")


def _check_spine(sig, ctx, args, telescope):
    for k, arg in enumerate(args):
        check_term(sig, ctx, arg, apply_subst(sig, args[:k], telescope[k]))


def infer_term(sig: Signature, ctx, t):
    """The type of t in ctx; memoised per signature.  Only successes are
    stored, so an ill-typed term raises again on every call."""
    ctx = tuple(ctx)
    key = (ctx, t)
    ty = sig._type_cache.get(key)
    if ty is not None:
        return ty
    if isinstance(t, Var):
        if not (0 <= t.index < len(ctx)):
            raise ScopeError(f"variable index {t.index} out of scope")
        ty = shift(ctx[len(ctx) - 1 - t.index], t.index + 1)
    elif isinstance(t, Const):
        d = sig.decls.get(t.head)
        if d is None:
            raise ScopeError(f"unbound constant {t.head!r}")
        if not d.is_term:
            raise TypeCheckError(f"{t.head!r} is a sort and cannot appear as a term")
        if len(t.args) != d.arity:
            raise TypeCheckError(f"{t.head!r} expects {d.arity} arguments")
        _check_spine(sig, ctx, t.args, d.telescope)
        ty = instantiate_many(d.target, t.args)
    elif isinstance(t, App):
        tf = infer_term(sig, ctx, t.fun)
        tf = normalize(sig, tf)
        if not isinstance(tf, PiType):
            raise TypeCheckError(f"applying a non-function of type {pretty(tf)}")
        check_term(sig, ctx, t.arg, tf.dom)
        ty = subst(tf.cod, 0, t.arg)
    elif isinstance(t, Lam):
        check_type(sig, ctx, t.dom)
        if not is_rep_type(sig, t.dom):
            raise TypeCheckError("lambda domain must be a representable sort")
        cod = infer_term(sig, ctx + (t.dom,), t.body)
        ty = PiType(t.dom, cod)
    else:
        raise TypeCheckError(f"not a term: {t!r}")
    bounded(sig._type_cache)[key] = ty
    return ty


def check_term(sig, ctx, t, expected):
    got = infer_term(sig, ctx, t)
    if not conv(sig, got, expected):
        raise TypeCheckError(
            f"type mismatch: term {pretty(t)} has type {pretty(got)}, expected {pretty(expected)}"
        )


# ---------------------------------------------------------------------------
# rule context inference and signature checking
# ---------------------------------------------------------------------------


def _infer_rule_context(sig: Signature, lhs, n_vars):
    """Walk the constant-headed pattern, assigning each rule variable the
    expected type of its first occurrence.  Types come out in the full
    rule context; entry k must only use variables before k."""
    types = {}

    def walk(pattern, expected, depth):
        if isinstance(pattern, Var):
            if pattern.index < depth:
                return
            v = pattern.index - depth
            if v not in types and expected is not None:
                if any(i < depth for i in free_vars(expected)):
                    return  # type mentions bound variables; cannot be hoisted
                types[v] = shift(expected, -depth)
            return
        if isinstance(pattern, Const):
            d = sig.decls.get(pattern.head)
            if d is None or not d.is_term:
                raise TypeCheckError(f"bad pattern head {pattern.head!r}")
            for k, sub in enumerate(pattern.args):
                walk(sub, instantiate_many(d.telescope[k], tuple(pattern.args[:k])), depth)
            return
        if isinstance(pattern, Lam):
            ex = expected
            if isinstance(ex, PiType):
                walk(pattern.body, ex.cod, depth + 1)
            else:
                walk(pattern.body, None, depth + 1)
            return
        if isinstance(pattern, App):
            walk(pattern.fun, None, depth)
            walk(pattern.arg, None, depth)
            return
        raise TypeCheckError(f"unsupported pattern {pattern!r}")

    if not isinstance(lhs, Const):
        raise TypeCheckError("rule left sides must be constant-headed")
    walk(lhs, None, 0)
    ctx = []
    for k in range(n_vars):
        idx = n_vars - 1 - k  # variable k (outermost) has index n-1-k at depth 0
        ty = types.get(idx)
        if ty is None:
            raise TypeCheckError("cannot infer a type for a rule variable; it must occur as a direct argument")
        # expressed in the full context; shift down to the prefix of length k
        drop = n_vars - k
        if any(i < drop for i in free_vars(ty)):
            raise TypeCheckError("rule variable types may only depend on earlier variables")
        ctx.append(shift(ty, -drop))
    return tuple(ctx)


@dataclass
class SigIssue:
    where: str
    message: str


@dataclass
class SigReport:
    issues: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.issues

    def __bool__(self):
        return self.ok


def parse_signature(text: str) -> Signature:
    """Parse and check a signature; raises on the first hard error."""
    sig, report = parse_and_check(text)
    if not report.ok:
        raise TypeCheckError("; ".join(f"{i.where}: {i.message}" for i in report.issues))
    return sig


def parse_and_check(text: str):
    """Parse a signature, checking each item against the prefix before it.
    Returns (signature of the accepted items, report of all issues)."""
    parser = _Parser(text)
    with parser.depth_guard():
        return _check_items(parser.parse_signature_items())


def _check_items(raw_items):
    report = SigReport()
    sig = Signature()
    for raw in raw_items:
        if raw[0] == "decl":
            _, name, raw_tele, raw_target = raw
            if name in sig.decls:
                report.issues.append(SigIssue(name, "duplicate declaration"))
                continue
            try:
                res = _Resolver(sig.decls)
                scope = []
                tele = []
                for pname, pty in raw_tele:
                    tele.append(res.type(pty, scope))
                    scope.append(pname)
                if isinstance(raw_target, str):
                    target = raw_target
                else:
                    target = res.type(raw_target, scope)
                decl = Declaration(name, tuple(tele), target)
                probe = sig.extended([decl])
                # a term's type is checked as one more entry after its telescope
                check_context(probe, decl.telescope + (decl.target,) if decl.is_term else decl.telescope)
                sig = probe
            except KernelError as e:
                report.issues.append(SigIssue(name, str(e)))
        else:
            _, raw_lhs, raw_rhs = raw
            try:
                res = _Resolver(sig.decls, rule_mode=True)
                lhs_open = res.term(raw_lhs, [])
                rhs_open = res.term(raw_rhs, [])
                n = len(res.rule_vars)
                lhs = _close_rule_vars(lhs_open, n)
                rhs = _close_rule_vars(rhs_open, n)
                if not isinstance(lhs, Const):
                    raise TypeCheckError("rule left sides must be constant-headed")
                rctx = _infer_rule_context(sig, lhs, n)
                check_context(sig, rctx)
                lt = infer_term(sig, rctx, lhs)
                rt = infer_term(sig, rctx, rhs)
                if not conv(sig, lt, rt):
                    raise TypeCheckError(
                        f"rule does not preserve types: {pretty(lt)} vs {pretty(rt)}"
                    )
                sig = sig.extended([Rule(rctx, lhs, rhs)])
            except KernelError as e:
                report.issues.append(SigIssue(pretty_raw(raw_lhs), str(e)))
    return sig, report


def pretty_raw(raw):
    if isinstance(raw, tuple) and raw and raw[0] == "call":
        return raw[1]
    return "<rule>"


def check_signature(sig_text: str) -> SigReport:
    _, report = parse_and_check(sig_text)
    return report


# ---------------------------------------------------------------------------
# pretty printing signatures
# ---------------------------------------------------------------------------


def print_signature(sig: Signature) -> str:
    """Canonical text form; parsing it back yields an equal signature."""
    lines = []
    for it in sig.items:
        if isinstance(it, Declaration):
            if it.telescope:
                binds = []
                names = []
                for k, ty in enumerate(it.telescope):
                    v = f"x{k}"
                    binds.append(f"{v} : {pretty(ty, names)}")
                    names.append(v)
                tele = "(" + ", ".join(binds) + ") -> "
            else:
                tele, names = "", []
            tgt = it.target if isinstance(it.target, str) else pretty(it.target, names)
            lines.append(f"{it.name} : {tele}{tgt}")
        else:
            names = [f"x{k}" for k in range(len(it.context))]
            lines.append(f"{pretty(it.lhs, names)} ~> {pretty(it.rhs, names)}")
    return "\n".join(lines) + "\n"


def parse_term_text(sig: Signature, text: str):
    """Parse a closed standalone term against a signature."""
    parser = _Parser(text)
    with parser.depth_guard():
        raw = parser.parse_term()
        if parser.peek()[0] != "eof":
            t = parser.peek()
            raise ParseError("trailing input after term", t[2], t[3])
        return _Resolver(sig.decls).term(raw, [])
