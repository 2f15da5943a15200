"""A small specification language for host typestates and policies.

The paper lists "the design of a language for specifying policies" as
the first issue safety checking faces (Section 1).  This module
implements a line-oriented language mirroring the paper's figures:

.. code-block:: text

    # Figure 1, host side
    region V
    loc e   : int    = initialized  perms ro  region V  summary
    loc arr : int[n] = {e}          perms rfo region V
    rule [V : int : ro]
    rule [V : int[n] : rfo]
    invoke %o0 = arr
    invoke %o1 = n
    assume n >= 1

    type thread = struct { tid: int; lwpid: int; next: thread ptr }
    rule [H : thread.tid, thread.lwpid : ro]
    rule [H : thread.next : rfo]

    function StartTimer {
        param %o0 : timer ptr = {t} perms fo
        requires %o0 != null
        returns %o0 : int = initialized perms o
        clobbers %g1 %g2
    }

Constraint expressions are linear comparisons over spec symbols and
registers (``n >= 1``, ``4 n > %g2 + 1``), combinable with ``and`` /
``or`` and parentheses; ``e mod k == r`` produces congruence atoms.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import SpecError
from repro.logic.formula import (
    Formula, congruent, conj, disj, eq, ge, gt, le, lt, ne,
)
from repro.logic.terms import Linear
from repro.policy.model import (
    HostSpec, LocationDecl, TrustedFunction,
    parse_state, split_perms,
)
from repro.typesys.typestate import Typestate


def parse_spec(text: str) -> HostSpec:
    """Parse a complete host specification."""
    return _SpecParser(text).parse()


# ---------------------------------------------------------------------------
# constraint expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>%?[A-Za-z_][\w.]*)"
    r"|(?P<op><=|>=|==|!=|=|<|>|\+|-|\*|\(|\)))")

_NULL_SYNONYMS = {"null", "NULL"}


class ConstraintParser:
    """Recursive-descent parser for linear-constraint expressions.

    Grammar::

        formula := clause (('and'|'or') clause)*     (left-assoc, 'and'
                                                      binds tighter)
        clause  := comparison | '(' formula ')'
        comparison := sum REL sum | sum 'mod' NUM ('='|'==') NUM
                                                     (modulus >= 2)
        sum     := term (('+'|'-') term)*
        term    := NUM | NUM '*'? atom | atom
        atom    := register | symbol | 'null' (= 0)
    """

    def __init__(self, text: str):
        self._text = text
        self._tokens = self._tokenize(text)
        self._pos = 0

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens: List[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if not match:
                if text[pos:].strip():
                    raise SpecError("cannot tokenize constraint %r at %r"
                                    % (text, text[pos:]))
                break
            tokens.append(match.group(match.lastgroup))  # type: ignore[arg-type]
            pos = match.end()
        return tokens

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) \
            else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise SpecError("unexpected end of constraint %r" % self._text)
        self._pos += 1
        return token

    def _expect(self, *alternatives: str) -> str:
        token = self._next()
        if token not in alternatives:
            raise SpecError("expected one of %s, got %r in %r"
                            % (alternatives, token, self._text))
        return token

    # -- grammar ------------------------------------------------------------------

    def parse(self) -> Formula:
        formula = self._or()
        if self._peek() is not None:
            raise SpecError("trailing tokens in constraint %r"
                            % self._text)
        return formula

    def _or(self) -> Formula:
        left = self._and()
        while self._peek() == "or":
            self._next()
            left = disj(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._clause()
        while self._peek() == "and":
            self._next()
            left = conj(left, self._clause())
        return left

    def _clause(self) -> Formula:
        if self._peek() == "(":
            self._next()
            inner = self._or()
            self._expect(")")
            return inner
        return self._comparison()

    def _comparison(self) -> Formula:
        left = self._sum()
        if self._peek() == "mod":
            self._next()
            modulus = self._number()
            if modulus < 2:
                raise SpecError("congruence modulus must be >= 2, got %d"
                                " in %r" % (modulus, self._text))
            self._expect("=", "==")
            residue = self._number()
            return congruent(left, modulus, residue)
        op = self._expect("<=", ">=", "==", "!=", "=", "<", ">")
        right = self._sum()
        return {
            "<=": le, ">=": ge, "==": eq, "=": eq, "!=": ne,
            "<": lt, ">": gt,
        }[op](left, right)

    def _number(self) -> int:
        token = self._next()
        if not token.isdigit():
            raise SpecError("expected a number, got %r in %r"
                            % (token, self._text))
        return int(token)

    def _sum(self) -> Linear:
        total = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            term = self._term()
            total = total + term if op == "+" else total - term
        return total

    def _term(self) -> Linear:
        token = self._peek()
        if token is None:
            raise SpecError("unexpected end of constraint %r" % self._text)
        sign = 1
        while token in ("+", "-"):
            if token == "-":
                sign = -sign
            self._next()
            token = self._peek()
        if token is not None and token.isdigit():
            value = int(self._next())
            nxt = self._peek()
            if nxt == "*":
                self._next()
                nxt = self._peek()
            if nxt is not None and _is_name(nxt) \
                    and nxt not in ("and", "or", "mod"):
                return Linear.var(self._next(), sign * value)
            return Linear.const(sign * value)
        if token is not None and _is_name(token):
            name = self._next()
            if name in _NULL_SYNONYMS:
                return Linear.const(0)
            return Linear.var(name, sign)
        raise SpecError("cannot parse term at %r in %r"
                        % (token, self._text))


def _is_name(token: str) -> bool:
    return bool(re.match(r"%?[A-Za-z_]", token))


def parse_constraint(text: str) -> Formula:
    """Parse one constraint expression into a formula."""
    return ConstraintParser(text).parse()


# ---------------------------------------------------------------------------
# the specification language
# ---------------------------------------------------------------------------

_LOC_RE = re.compile(
    r"^loc\s+(?P<name>[\w.$]+)\s*:\s*(?P<type>[^=]+?)"
    r"(?:=\s*(?P<state>\{[^}]*\}|\w+))?"
    r"(?:\s+perms\s+(?P<perms>[rwfxo]+))?"
    r"(?:\s+region\s+(?P<region>\w+))?"
    r"(?:\s+align\s+(?P<align>\d+))?"
    r"(?P<summary>\s+summary)?\s*$")

_RULE_RE = re.compile(
    r"^rule\s*\[\s*(?P<region>\w+)\s*:\s*(?P<cats>[^:]+?)\s*:\s*"
    r"(?P<perms>[rwfxo]+)\s*\]\s*$")

_PARAM_RE = re.compile(
    r"^(param|returns)\s+(?P<reg>%?\w+)\s*:\s*(?P<type>[^=]+?)"
    r"(?:=\s*(?P<state>\{[^}]*\}|\w+))?"
    r"(?:\s+perms\s+(?P<perms>[rwfxo]+))?\s*$")


class _SpecParser:
    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._spec = HostSpec()

    def parse(self) -> HostSpec:
        index = 0
        while index < len(self._lines):
            line = self._strip(self._lines[index])
            index += 1
            if not line:
                continue
            head = line.split(None, 1)[0]
            if head == "region":
                continue  # regions are implicit in loc/rule lines
            if head == "type":
                self._parse_type(line)
            elif head == "abstract":
                self._parse_abstract(line)
            elif head == "loc":
                self._parse_loc(line)
            elif head == "rule":
                self._parse_rule(line)
            elif head == "invoke":
                self._parse_invoke(line)
            elif head == "entry":
                self._spec.invocation.entry_label = self._argument(line)
            elif head == "assume":
                self._spec.constrain(
                    parse_constraint(self._argument(line)))
            elif head == "ensure":
                self._spec.postcondition = conj(
                    self._spec.postcondition,
                    parse_constraint(self._argument(line)))
            elif head == "function":
                index = self._parse_function(line, index)
            elif head == "automaton":
                index = self._parse_automaton(line, index)
            else:
                raise SpecError("unknown specification line %r" % line)
        return self._spec

    @staticmethod
    def _strip(line: str) -> str:
        return line.split("#", 1)[0].strip()

    @staticmethod
    def _argument(line: str) -> str:
        """The text after a keyword line's keyword (``assume X``)."""
        parts = line.split(None, 1)
        if len(parts) < 2:
            raise SpecError("%r needs an argument" % parts[0])
        return parts[1]

    # -- one-line forms -------------------------------------------------------

    def _parse_type(self, line: str) -> None:
        match = re.match(r"^type\s+(\w+)\s*=\s*struct\s*\{(.*)\}\s*$",
                         line)
        if not match:
            raise SpecError("cannot parse type definition %r" % line)
        name, body = match.group(1), match.group(2)
        members: List[Tuple[str, str]] = []
        for part in body.split(";"):
            part = part.strip()
            if not part:
                continue
            label, __, texpr = part.partition(":")
            if not texpr:
                raise SpecError("struct member needs 'label: type' in %r"
                                % line)
            members.append((label.strip(), texpr.strip()))
        # Self-referential structs (thread.next): pre-register a pointer
        # to an abstract stand-in if the name is used inside its own body.
        self._spec.types.define_struct(name, self._resolve_members(
            name, members))

    def _resolve_members(self, struct_name: str,
                         members: List[Tuple[str, str]]):
        resolved = []
        for label, texpr in members:
            if texpr.split()[0] == struct_name \
                    and self._spec.types.lookup(struct_name) is None:
                # Recursive pointer: model as pointer to the named
                # abstract location summary; declared via an abstract
                # type of pointer size.
                inner = self._spec.types.lookup("_self_%s" % struct_name)
                if inner is None:
                    inner = self._spec.types.define_abstract(
                        "_self_%s" % struct_name, size=4)
                texpr_rest = texpr.split(None, 1)[1] \
                    if len(texpr.split()) > 1 else ""
                resolved.append((label, ("_self_%s %s"
                                         % (struct_name,
                                            texpr_rest)).strip()))
            else:
                resolved.append((label, texpr))
        return resolved

    def _parse_abstract(self, line: str) -> None:
        match = re.match(r"^abstract\s+(\w+)\s+size\s+(\d+)"
                         r"(?:\s+align\s+(\d+))?\s*$", line)
        if not match:
            raise SpecError("cannot parse abstract type %r" % line)
        self._spec.types.define_abstract(
            match.group(1), int(match.group(2)),
            int(match.group(3) or 4))

    def _parse_loc(self, line: str) -> None:
        match = _LOC_RE.match(line)
        if not match:
            raise SpecError("cannot parse location declaration %r" % line)
        self._spec.declare(LocationDecl(
            name=match.group("name"),
            type=match.group("type").strip(),
            state=match.group("state") or "initialized",
            perms=match.group("perms") or "ro",
            region=match.group("region") or "",
            align=int(match.group("align") or 4),
            summary=bool(match.group("summary")),
        ))

    def _parse_rule(self, line: str) -> None:
        match = _RULE_RE.match(line)
        if not match:
            raise SpecError("cannot parse policy rule %r" % line)
        categories = tuple(c.strip()
                           for c in match.group("cats").split(",")
                           if c.strip())
        self._spec.rule(match.group("region"), categories,
                        match.group("perms"))

    def _parse_invoke(self, line: str) -> None:
        match = re.match(r"^invoke\s+(%?\w+)\s*(?:=|<-)\s*([\w.$]+)\s*$",
                         line)
        if not match:
            raise SpecError("cannot parse invocation binding %r" % line)
        self._spec.bind(match.group(1), match.group(2))

    # -- function blocks -------------------------------------------------------

    def _parse_function(self, header: str, index: int) -> int:
        match = re.match(r"^function\s+([\w.$]+)\s*\{\s*$", header)
        if not match:
            raise SpecError("cannot parse function header %r" % header)
        fn = TrustedFunction(name=match.group(1))
        while index < len(self._lines):
            line = self._strip(self._lines[index])
            index += 1
            if not line:
                continue
            if line == "}":
                self._spec.trust(fn)
                return index
            head = line.split(None, 1)[0]
            if head in ("param", "returns"):
                pmatch = _PARAM_RE.match(line)
                if not pmatch:
                    raise SpecError("cannot parse %r" % line)
                readable, writable, value_access = split_perms(
                    pmatch.group("perms") or "o")
                ts = Typestate(
                    type=self._spec.types.parse(pmatch.group("type")),
                    state=parse_state(pmatch.group("state")
                                      or "initialized"),
                    access=value_access,
                )
                target = fn.params if head == "param" else fn.returns
                target[pmatch.group("reg")] = ts
            elif head == "requires":
                fn.precondition = conj(
                    fn.precondition,
                    parse_constraint(self._argument(line)))
            elif head == "ensures":
                fn.postcondition = conj(
                    fn.postcondition,
                    parse_constraint(self._argument(line)))
            elif head == "clobbers":
                fn.clobbers = tuple(line.split()[1:])
            else:
                raise SpecError("unknown function-spec line %r" % line)
        raise SpecError("unterminated function block for %r" % fn.name)

    def _parse_automaton(self, header: str, index: int) -> int:
        from repro.analysis.automaton import SecurityAutomaton
        match = re.match(r"^automaton\s+(\w+)\s*\{\s*$", header)
        if not match:
            raise SpecError("cannot parse automaton header %r" % header)
        automaton = SecurityAutomaton(name=match.group(1))
        while index < len(self._lines):
            line = self._strip(self._lines[index])
            index += 1
            if not line:
                continue
            if line == "}":
                automaton.validate()
                self._spec.automata[automaton.name] = automaton
                return index
            start = re.match(r"^start\s+(\w+)$", line)
            final = re.match(r"^final\s+(\w+(?:\s+\w+)*)$", line)
            edge = re.match(
                r"^(\w+)\s*->\s*(\w+)\s*:\s*([\w.$]+)$", line)
            anywhere = re.match(r"^any\s*:\s*([\w.$]+)$", line)
            if start:
                automaton.add_state(start.group(1), start=True)
            elif final:
                for name in final.group(1).split():
                    automaton.add_state(name, final=True)
            elif edge:
                automaton.add_state(edge.group(1))
                automaton.add_state(edge.group(2))
                automaton.add_transition(edge.group(1), edge.group(2),
                                         edge.group(3))
            elif anywhere:
                automaton.allow_anywhere(anywhere.group(1))
            else:
                raise SpecError("unknown automaton line %r" % line)
        raise SpecError("unterminated automaton block for %r"
                        % automaton.name)
