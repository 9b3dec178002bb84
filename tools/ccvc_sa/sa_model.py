"""sa_model — cross-TU C++ program model for ccvc_sa.

Builds, from the token streams of every file under src/, the program
model the checkers run on:

  * functions — qualified name, owning class, parameter names, body
    token slice, [[noreturn]]-ness;
  * a call graph — per-function callee *names* (unqualified), resolved
    against a name index (two functions sharing a name share their
    edges; reachable_typed prunes method edges by type visibility);
  * mutable state — namespace-scope non-const variables, function-local
    statics, class data members (with const/static classification).

Macro call sites are bridged to the functions their expansions call
(MACRO_CALLS below), because the lexer drops preprocessor definitions:
a CCVC_METRIC_COUNT site really does reach the process-global metrics
registry, and the model must see that edge.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field

from sa_lexer import Tok, lex

IDENT_SCAN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Keywords that look like calls (`if (`, `while (`...) or poison simple
# name heuristics.
NON_CALL = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "alignof", "decltype", "static_cast", "reinterpret_cast", "const_cast",
    "dynamic_cast", "static_assert", "new", "delete", "noexcept", "assert",
    "defined", "alignas", "operator", "int", "char", "bool", "double",
    "float", "void", "auto", "unsigned", "signed", "long", "short",
}

DECL_KEYWORDS = {
    "using", "typedef", "friend", "template", "static_assert", "extern",
    "enum", "namespace", "class", "struct", "union", "concept", "requires",
}

# The expansions the lexer cannot see: macro name -> functions its body
# calls.  Keeps the metrics registry / trace ring / contract thrower
# reachable from instrumented call sites.
MACRO_CALLS = {
    "CCVC_METRIC_COUNT": ["counter"],
    "CCVC_METRIC_GAUGE_SET": ["gauge"],
    "CCVC_METRIC_HIST": ["histogram"],
    "CCVC_METRIC_TALLY": ["histogram"],
    "CCVC_TRACE": ["enabled", "record"],
    "CCVC_CHECK": ["check_failed"],
    "CCVC_CHECK_MSG": ["check_failed"],
    "CCVC_DCHECK": ["check_failed"],
}


@dataclass
class Func:
    name: str            # unqualified
    qual: str            # namespace::Class::name
    cls: str | None      # owning class (unqualified), if a method
    params: list[str]
    body: list[Tok]
    file: str            # repo-relative path
    line: int
    noreturn: bool = False
    sig: list[str] = field(default_factory=list)  # id texts in param list
    # Callee names.  A call written `x.f(...)` or `p->f(...)` is
    # recorded as ".f": it can only reach a method, never a free
    # function that happens to share the name.  A call written
    # `ns::f(...)` is recorded with its qualifier, "ns::f": it reaches
    # only the free functions whose qualified name ends with it.
    calls: set[str] = field(default_factory=set)


@dataclass
class Var:
    name: str
    file: str
    line: int
    decl: str            # rendered declaration text
    kind: str            # "global" | "local-static" | "member" | "class-static"
    owner: str = ""      # owning function (local-static) or class (member)
    is_const: bool = False


@dataclass
class ClassInfo:
    name: str            # unqualified
    qual: str
    file: str
    line: int
    members: list[Var] = field(default_factory=list)


@dataclass
class Model:
    funcs: list[Func] = field(default_factory=list)
    globals: list[Var] = field(default_factory=list)
    local_statics: list[Var] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    # file -> {line -> {checker names allowed}}
    allows: dict[str, dict[int, set[str]]] = field(default_factory=dict)
    # file -> raw text (for checkers that need context lines)
    texts: dict[str, str] = field(default_factory=dict)
    by_name: dict[str, list[Func]] = field(default_factory=dict)
    # names declared [[noreturn]] anywhere (prototype or definition)
    noreturn_names: set[str] = field(default_factory=set)

    def calls_in(self, body: list[Tok]) -> set[str]:
        """_extract_calls over `body` against this model's class table —
        for a whole function body or for one carved-out slice of it."""
        return _extract_calls(body, frozenset(
            c.name for c in self.classes.values()))

    def own_calls(self, fn: "Func") -> set[str]:
        """fn's calls.  A constructor's exclude its lambda bodies: a
        lambda built there is stored — a callback, a thread body — and
        runs later on whichever thread calls it, never inside the
        closure of the function that constructs the object.  Without
        this, `NotifierPipeline pipeline(...)` in run_threaded_star
        would pull the transform thread's body into the control
        closure."""
        if fn.name != fn.cls:
            return self.calls_in(fn.body)
        lambdas = _lambda_ranges(fn.body)
        return self.calls_in([t for k, t in enumerate(fn.body)
                              if not any(s <= k < e for s, e in lambdas)])

    def index(self) -> None:
        self.by_name = {}
        for f in self.funcs:
            self.by_name.setdefault(f.name, []).append(f)
            if f.noreturn:
                self.noreturn_names.add(f.name)

    def visible_types(self, fn: "Func") -> set[str]:
        """Type names plausibly in scope at `fn`'s call sites: every
        identifier in its body and parameter list, plus the identifiers
        in the declarations of its own class's members that the body
        references.  Used by reachable_typed to prune name-merge edges."""
        vis = {t.text for t in fn.body if t.kind == "id"}
        vis.update(fn.sig)
        cls = next((c for c in self.classes.values()
                    if c.name == fn.cls), None) if fn.cls else None
        if cls is not None:
            body_ids = vis
            for m in cls.members:
                if m.name in body_ids:
                    vis.update(IDENT_SCAN_RE.findall(m.decl))
        return vis

    def _typed_callee_funcs(self, fn: "Func", calls: set[str],
                            vis: set[str]):
        """The type-visibility filter behind typed_callees and
        reachable_typed: a free function is admitted only through a
        non-member call (and, for a qualified one, only if its
        qualified name ends with the call's), a method only when its
        class is visible at the caller."""
        for callee in calls:
            member = callee.startswith(".")
            qualified = "::" in callee
            for g in self.by_name.get(
                    callee.lstrip(".").rpartition("::")[2], ()):
                if g.cls is None:
                    if not member and (not qualified or g.qual == callee
                                       or g.qual.endswith("::" + callee)):
                        yield g
                elif g.cls == fn.cls or g.cls in vis:
                    yield g

    def typed_callees(self, fn: "Func",
                      calls: set[str] | None = None) -> set[str]:
        """Qualified names of `fn`'s callees under the type-visibility
        filter reachable_typed uses.  `calls` overrides fn.calls — used
        where a caller's lambda bodies are attributed to other threads
        and must not contribute edges."""
        return {g.qual for g in self._typed_callee_funcs(
            fn, fn.calls if calls is None else calls,
            self.visible_types(fn))}

    def propagate_summaries(
            self, direct: dict[str, frozenset]) -> dict[str, set]:
        """Call-summary propagation over the type-refined call graph:
        summary(f) = direct(f) ∪ ⋃ summary(g) for every typed callee g.
        Fixpoint by repeated passes (the graph is small and cyclic call
        chains must converge, so a worklist buys nothing here).  This is
        how a fact like *blocks* travels up the call graph — a function
        is blocking iff its summary is non-empty, even when the
        primitive is buried N calls deep (check_blocking relies on it)."""
        edges: dict[str, set[str]] = {}
        summaries: dict[str, set] = {}
        for fn in self.funcs:
            summaries.setdefault(fn.qual, set()).update(
                direct.get(fn.qual, ()))
            edges.setdefault(fn.qual, set()).update(self.typed_callees(fn))
        changed = True
        while changed:
            changed = False
            for q, outs in edges.items():
                s = summaries[q]
                before = len(s)
                for c in outs:
                    s |= summaries.get(c, set())
                if len(s) != before:
                    changed = True
        return summaries

    def reachable_typed(self, roots: list[str]) -> set[str]:
        """Transitive closure over the call graph from root *qualified*
        names (suffix-matched), returned as a set of qualified names.  A
        call edge to a *method* requires the method's class to be
        type-visible at the caller (same class, named in the
        body/params, or named in the declaration of a member the body
        touches) — the right precision for per-thread ownership
        closures, where `add` must not merge BatchAssembler::add with
        Gauge::add.  A member call (`v.clear()`) never reaches a free
        function of the same name."""
        root_funcs = [f for f in self.funcs
                      if any(f.qual == r or f.qual.endswith("::" + r)
                             or f.name == r for r in roots)]
        seen: set[str] = set()
        work = list(root_funcs)
        while work:
            fn = work.pop()
            if fn.qual in seen:
                continue
            seen.add(fn.qual)
            work.extend(g for g in self._typed_callee_funcs(
                fn, fn.calls, self.visible_types(fn)) if g.qual not in seen)
        return seen


def render(toks: list[Tok]) -> str:
    """Compact single-line rendering of a token slice."""
    out: list[str] = []
    for t in toks:
        if out and t.kind in ("id", "num") and out[-1][-1:].isalnum():
            out.append(" " + t.text)
        elif t.text in ("&", "*") and out and out[-1][-1:].isalnum():
            out.append(t.text)
        else:
            out.append(t.text)
    return "".join(out).strip()


def _match_paren(toks: list[Tok], i: int, open_c: str, close_c: str) -> int:
    """Index just past the matching close for the open at toks[i]."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def _param_names(toks: list[Tok]) -> list[str]:
    """Parameter names from a param-list token slice (excluding the
    outer parens): last identifier of each comma-segment at depth 0,
    skipping defaulted values."""
    params: list[str] = []
    depth = 0
    seg: list[Tok] = []

    def close(segment: list[Tok]) -> None:
        cut = segment
        for k, t in enumerate(segment):
            if t.text == "=":
                cut = segment[:k]
                break
        ids = [t.text for t in cut if t.kind == "id"
               and t.text not in ("const", "unsigned", "signed", "struct")]
        if len(ids) >= 2:  # a lone identifier is a type, not a name
            params.append(ids[-1])

    for t in toks:
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth -= 1
        elif t.text == "," and depth == 0:
            close(seg)
            seg = []
            continue
        seg.append(t)
    if seg:
        close(seg)
    return params


def _strip_template(head: list[Tok]) -> list[Tok]:
    """Drop a leading `template <...>` clause (angle-depth matched)."""
    if not head or head[0].text != "template":
        return head
    depth = 0
    for k in range(1, len(head)):
        t = head[k].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return head[k + 1:]
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return head[k + 1:]
    return head


def _extract_calls(body: list[Tok], classes: frozenset[str]) -> set[str]:
    """Callee names in `body`, member calls marked and qualified calls
    kept qualified (see Func.calls).  A declaration-style construction
    `Type name(...)` / `Type name{...}` calls Type's constructor; it is
    recognized only when Type is in `classes`, the model's class table
    (Model.calls_in)."""
    calls: set[str] = set()
    for i, t in enumerate(body):
        if t.kind != "id" or t.text in NON_CALL:
            continue
        if i + 1 < len(body) and body[i + 1].text == "(":
            name = t.text
            j = i
            while j >= 2 and body[j - 1].text == "::" \
                    and body[j - 2].kind == "id":
                j -= 2
                name = body[j].text + "::" + name
            member = j > 0 and body[j - 1].text in (".", "->")
            calls.add("." + name if member else name)
        if t.text in MACRO_CALLS:
            calls.update(MACRO_CALLS[t.text])
        if t.text in classes and i + 2 < len(body) \
                and body[i + 1].kind == "id" \
                and body[i + 2].text in ("(", "{"):
            calls.add(t.text)
    return calls


def _lambda_ranges(body: list[Tok]) -> list[tuple[int, int]]:
    """[start, end) token ranges of the lambda bodies in `body`: a `[`
    that cannot be a subscript (it follows `(`, `,`, `=`, `{`, `;` or
    `return`), its capture list, an optional parameter list and
    specifiers, then the braced body."""
    out: list[tuple[int, int]] = []
    for i, t in enumerate(body):
        if t.text != "[" or (i and body[i - 1].text not in (
                "(", ",", "=", "{", ";", "return")):
            continue
        j = _match_paren(body, i, "[", "]")
        if j < len(body) and body[j].text == "(":
            j = _match_paren(body, j, "(", ")")
        while j < len(body) and body[j].text not in ("{", ";", ")", ","):
            j += 1  # mutable / noexcept / -> return type
        if j < len(body) and body[j].text == "{":
            out.append((j, _match_paren(body, j, "{", "}")))
    return out


def _local_statics(fn: Func) -> list[Var]:
    out: list[Var] = []
    body = fn.body
    for i, t in enumerate(body):
        if t.text != "static" or (i and body[i - 1].text not in ";{}"):
            continue
        j = i + 1
        decl: list[Tok] = [t]
        is_const = False
        name = ""
        while j < len(body) and body[j].text not in (";", "=", "{", "("):
            if body[j].text in ("const", "constexpr"):
                is_const = True
            if body[j].kind == "id":
                name = body[j].text
            decl.append(body[j])
            j += 1
        if name and name not in ("assert",):
            out.append(Var(name=name, file=fn.file, line=t.line,
                           decl=render(decl), kind="local-static",
                           owner=fn.qual, is_const=is_const))
    return out


class _FileParser:
    """One pass over a file's token stream, maintaining a scope stack of
    ("namespace"|"class"|"skip", name) frames."""

    def __init__(self, model: Model, rel: str, toks: list[Tok]):
        self.model = model
        self.rel = rel
        self.toks = toks
        self.i = 0
        self.scopes: list[tuple[str, str]] = []

    def ns_prefix(self) -> str:
        parts = [n for k, n in self.scopes if k == "namespace" and n]
        return "::".join(parts)

    def cur_class(self) -> str | None:
        for k, n in reversed(self.scopes):
            if k == "class":
                return n
        return None

    def qual(self, cls: str | None, name: str) -> str:
        parts = [p for p in (self.ns_prefix(), cls, name) if p]
        return "::".join(parts)

    def run(self) -> None:
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.text == "}":
                if self.scopes:
                    self.scopes.pop()
                self.i += 1
                if self.i < len(self.toks) and self.toks[self.i].text == ";":
                    self.i += 1
                continue
            self.statement()

    def statement(self) -> None:
        toks = self.toks
        start = self.i
        # Collect the declaration head: up to `{` or `;` at depth 0.
        head: list[Tok] = []
        depth = 0
        i = start
        while i < len(toks):
            t = toks[i]
            if t.text == "(":
                end = _match_paren(toks, i, "(", ")")
                head.extend(toks[i:end])
                i = end
                continue
            if t.text in ("{", ";") and depth == 0:
                break
            if t.text == "[":
                depth += 1
            elif t.text == "]":
                depth -= 1
            head.append(t)
            i += 1
        if i >= len(toks):
            self.i = len(toks)
            return
        term = toks[i].text
        head = _strip_template(head)
        # Drop leading access-specifier labels (`public:` etc.), which
        # merge into the following declaration at class scope.
        while len(head) >= 2 and head[0].text in (
                "public", "private", "protected") and head[1].text == ":":
            head = head[2:]
        words = [t.text for t in head if t.kind == "id"]

        if term == ";":
            self.i = i + 1
            self.declaration(head)
            return

        # term == "{"
        if words and words[0] == "namespace":
            # `namespace a::b {` nests both components in one frame.
            name = "::".join(words[1:])
            self.scopes.append(("namespace", name))
            self.i = i + 1
            return
        if words and words[0] in ("class", "struct", "union") \
                and "enum" not in words:
            # `class X ... {`  (base clauses already in head)
            name = words[1] if len(words) > 1 else ""
            line = head[0].line
            self.scopes.append(("class", name))
            q = self.qual(None, name)
            if q not in self.model.classes:
                self.model.classes[q] = ClassInfo(
                    name=name, qual=q, file=self.rel, line=line)
            self.i = i + 1
            return
        if words and words[0] == "enum":
            self.i = _match_paren(toks, i, "{", "}")
            if self.i < len(toks) and toks[self.i].text == ";":
                self.i += 1
            return

        # A function definition if the head has a param list: a `(`
        # preceded by an identifier (or operator).  Otherwise a braced
        # variable initializer — skip its block.
        fn_info = self.function_head(head)
        body_end = _match_paren(toks, i, "{", "}")
        if fn_info is None:
            self.i = body_end
            if self.i < len(toks) and toks[self.i].text == ";":
                self.i += 1
            if not any(w in ("const", "constexpr") for w in words):
                self.record_var(head)
            return
        name, cls, params, line, noreturn, sig = fn_info
        body = toks[i + 1:body_end - 1]
        fn = Func(name=name, qual=self.qual(cls, name),
                  cls=cls or self.cur_class(), params=params, body=body,
                  file=self.rel, line=line, noreturn=noreturn, sig=sig)
        self.model.funcs.append(fn)
        self.model.local_statics.extend(_local_statics(fn))
        self.i = body_end
        if self.i < len(toks) and toks[self.i].text == ";":
            self.i += 1

    def function_head(self, head: list[Tok]):
        """(name, cls, params, line, noreturn) if the head declares a
        function with a body, else None."""
        # Find the parameter list: first depth-0 `(` preceded by an
        # identifier (or `operator<punct>`).
        depth = 0
        for k, t in enumerate(head):
            if t.text == "(" and depth == 0 and k > 0:
                prev = head[k - 1]
                is_op = any(h.text == "operator" for h in head[max(0, k - 3):k])
                if prev.kind == "id" and prev.text not in NON_CALL or is_op:
                    name = "operator" + prev.text if (
                        is_op and prev.kind != "id") else prev.text
                    if is_op and prev.text == "operator":
                        name = "operator()"
                    cls = None
                    if k >= 3 and head[k - 2].text == "::" \
                            and head[k - 3].kind == "id":
                        cls = head[k - 3].text
                        # Constructors: Class::Class(...)
                    end = _match_paren(head, k, "(", ")")
                    plist = head[k + 1:end - 1]
                    params = _param_names(plist)
                    sig = [h.text for h in plist if h.kind == "id"]
                    noreturn = any(h.text == "noreturn" for h in head[:k])
                    return name, cls, params, head[0].line, noreturn, sig
            if t.text in "([":
                depth += 1
            elif t.text in ")]":
                depth -= 1
        return None

    def declaration(self, head: list[Tok]) -> None:
        """A `;`-terminated statement at namespace or class scope."""
        if not head:
            return
        head = _strip_template(head)
        words = [t.text for t in head if t.kind == "id"]
        if not words or words[0] in DECL_KEYWORDS or "operator" in words:
            return
        # A parenthesized group preceded by an identifier = a function
        # prototype (or `= default` method) — not state.  [[noreturn]]
        # prototypes feed the catch-swallow whitelist even without a
        # body in scanned sources.
        for k, t in enumerate(head):
            if t.text == "(" and k > 0 and head[k - 1].kind == "id" \
                    and head[k - 1].text not in NON_CALL:
                if "noreturn" in words:
                    self.model.noreturn_names.add(head[k - 1].text)
                return
        self.record_var(head)

    def record_var(self, head: list[Tok]) -> None:
        words = [t.text for t in head if t.kind == "id"]
        if not words or words[0] in DECL_KEYWORDS:
            return
        is_const = any(w in ("const", "constexpr") for w in words)
        is_static = "static" in words
        # Name: last identifier before `=` (if any), else last identifier.
        name = ""
        for t in head:
            if t.text == "=":
                break
            if t.kind == "id" and t.text not in (
                    "const", "constexpr", "static", "inline", "mutable",
                    "volatile", "unsigned", "signed", "std"):
                name = t.text
        if not name or name in NON_CALL:
            return
        cls = self.cur_class()
        if cls is not None:
            kind = "class-static" if is_static else "member"
            v = Var(name=name, file=self.rel, line=head[0].line,
                    decl=render(head), kind=kind,
                    owner=self.qual(None, cls), is_const=is_const)
            ci = self.model.classes.get(self.qual(None, cls))
            if ci is not None:
                ci.members.append(v)
        else:
            if is_const:
                return
            self.model.globals.append(Var(
                name=name, file=self.rel, line=head[0].line,
                decl=render(head), kind="global", is_const=False))


def build_model(root: pathlib.Path, subdirs: tuple[str, ...] = ("src",),
                ) -> Model:
    model = Model()
    files: list[pathlib.Path] = []
    for sub in subdirs:
        base = root / sub
        if base.is_dir():
            files += sorted(base.rglob("*.cpp")) + sorted(base.rglob("*.hpp"))
    for path in files:
        rel = str(path.relative_to(root))
        text = path.read_text(encoding="utf-8")
        toks, allows = lex(text)
        model.texts[rel] = text
        model.allows[rel] = allows
        _FileParser(model, rel, toks).run()
    # Calls are extracted once every file is parsed: a declaration-style
    # construction resolves against the complete class table.
    for fn in model.funcs:
        fn.calls = model.own_calls(fn)
    model.index()
    return model
