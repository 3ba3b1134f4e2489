"""One-line adaptation config language.

Grammar::

    config  := decl ':' chain? ;
    decl    := '(' NAME '.' NAME ('|' kv (',' kv)*)? ')' ;   kv := NAME '=' NUMBER
    chain   := ('->' hook)+ ;
    hook    := '(' path ')' '{' MODE INT? '}' ;
    path    := seg ('.' seg)* ;  seg := NAME ('[' (INT | INT ':' INT | '*') ']')? ;
    MODE    := 'in' | 'out' | 'inout' ;

Index ranges are half-open. Example:
``(LoRA.adapt):->(blocks[0:12].attn.qkv){inout1}``.

Methods are registered in :data:`zjkit.architect.METHODS`: names, keys,
defaults, count floors and the hook requirement come from the records. An
unlisted or repeated key, a value that is not finite, or a count that is
not a finite integer at or above its floor, is a :class:`ParseError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .architect import METHODS
from .errors import ParseError

# config spelling, lower-cased, or METHODS key -> METHODS key
_ALIASES = {alias: key for key, method in METHODS.items()
            for alias in (key, method.name.lower())}


@dataclass(frozen=True)
class Hook:
    pattern: str
    mode: str  # in | out | inout
    instance: int | None = None


@dataclass
class AdaptSpec:
    method: str
    action: str
    hyper: dict = field(default_factory=dict)
    hooks: list = field(default_factory=list)

    def hyperparams(self):
        merged = dict(METHODS[self.method].defaults)
        merged.update(self.hyper)
        return merged


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")
_INT_RE = re.compile(r"\d+")
_MODE_RE = re.compile(r"inout|in|out")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, expected):
        raise ParseError(self.pos, expected if isinstance(expected, set) else {expected})

    def eof(self):
        return self.pos >= len(self.text)

    def peek(self, lit):
        return self.text.startswith(lit, self.pos)

    def expect(self, lit):
        if not self.peek(lit):
            self.fail(repr(lit))
        self.pos += len(lit)

    def regex(self, pattern, what):
        m = pattern.match(self.text, self.pos)
        if not m:
            self.fail(what)
        self.pos = m.end()
        return m.group(0)

    # grammar rules ----------------------------------------------------

    def config(self):
        method, action, hyper = self.decl()
        self.expect(":")
        hooks = []
        while self.peek("->"):
            self.pos += 2
            hooks.append(self.hook())
        if not self.eof():
            self.fail({"'->'", "end of input"})
        if not METHODS[method].hook_free and not hooks:
            raise ParseError(
                self.pos, {"'->'"},
                f"method {method!r} requires at least one hook",
            )
        return AdaptSpec(method, action, hyper, hooks)

    def decl(self):
        decl_off = self.pos
        self.expect("(")
        name_off = self.pos
        raw = self.regex(_NAME_RE, "method name")
        method = _ALIASES.get(raw.lower())
        if method is None:
            raise ParseError(name_off, set(_ALIASES), f"unknown method {raw!r}")
        record = METHODS[method]
        self.expect(".")
        action = self.regex(_NAME_RE, "action name")
        hyper = {}
        count_key = record.count[0] if record.count else None  # range-checked below
        if self.peek("|"):
            self.pos += 1
            while True:
                key_off = self.pos
                key = self.regex(_NAME_RE, "hyperparameter name")
                if key not in record.defaults or key in hyper:
                    word = "repeated" if key in hyper else "unknown"
                    raise ParseError(key_off, set(record.defaults) - set(hyper) or {"')'"},
                                     f"{word} hyperparameter {key!r} for {record.name}")
                self.expect("=")
                hyper[key] = float(self.regex(_NUM_RE, "number"))
                if not math.isfinite(hyper[key]) and key != count_key:
                    raise ParseError(key_off, {"finite number"},
                                     f"{key}={hyper[key]} is not finite")
                if not self.peek(","):
                    break
                self.pos += 1
        self.expect(")")
        if record.count:  # reported at the declaration
            key, low = record.count
            v = hyper.get(key, record.defaults[key])
            if not (math.isfinite(v) and v.is_integer() and v >= low):
                raise ParseError(decl_off, {key}, f"{key}={v} is not an integer >= {low}")
        return method, action, hyper

    def hook(self):
        self.expect("(")
        pattern = self.path()
        self.expect(")")
        self.expect("{")
        mode = self.regex(_MODE_RE, {"'in'", "'out'", "'inout'"})
        instance = None
        m = _INT_RE.match(self.text, self.pos)
        if m:
            instance = int(m.group(0))
            self.pos = m.end()
        self.expect("}")
        return Hook(pattern, mode, instance)

    def path(self):
        segs = [self.seg()]
        while self.peek("."):
            self.pos += 1
            segs.append(self.seg())
        return ".".join(segs)

    def seg(self):
        name = self.regex(_NAME_RE, "path segment")
        if not self.peek("["):
            return name
        self.pos += 1
        if self.peek("*"):
            self.pos += 1
            self.expect("]")
            return f"{name}[*]"
        lo = self.regex(_INT_RE, "index")
        if self.peek(":"):
            self.pos += 1
            hi = self.regex(_INT_RE, "index")
            self.expect("]")
            return f"{name}[{lo}:{hi}]"
        self.expect("]")
        return f"{name}[{lo}]"


def parse_config(text) -> AdaptSpec:
    """Parse a one-line adaptation config into an AdaptSpec."""
    return _Parser(text).config()


def _fmt_num(v):
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def serialize(spec: AdaptSpec) -> str:
    """Canonical string form; parse(serialize(parse(s))) == parse(s)."""
    out = f"({METHODS[spec.method].name}.{spec.action}"
    if spec.hyper:
        kv = ",".join(f"{k}={_fmt_num(v)}" for k, v in sorted(spec.hyper.items()))
        out += f"|{kv}"
    out += "):"
    for h in spec.hooks:
        inst = "" if h.instance is None else str(h.instance)
        out += f"->({h.pattern}){{{h.mode}{inst}}}"
    return out
