"""Recursive-descent parser for Indus.

The grammar follows Figure 4 of the paper with the prototype extensions
(multi-variable ``for``, ``report`` payloads, ``elsif`` chains, augmented
assignment).  Nested generic types such as ``dict<bit<8>,bit<8>>`` produce
a ``>>`` token at the boundary; the parser splits it, the same fix C++
parsers use.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind
from .types import (ArrayType, BitType, BoolType, DictType, SetType,
                    TupleType, Type)

#: Token kind -> (precedence level, operator), for the climb: each
#: operator row's own level.  ``in`` sits with the comparisons and builds
#: an ``InExpr``, not a ``Binary``.
_BINARY = {TokenKind(op.value): (op.level, op) for op in ast.BinaryOp}
_BINARY[TokenKind.IN] = (ast.BinaryOp.EQ.level, None)

_UNARY = {TokenKind(op.value): op for op in ast.UnaryOp}

_DECL_KINDS = {
    TokenKind.TELE: ast.VarKind.TELE,
    TokenKind.SENSOR: ast.VarKind.SENSOR,
    TokenKind.HEADER: ast.VarKind.HEADER,
    TokenKind.CONTROL: ast.VarKind.CONTROL,
    TokenKind.LOCAL: ast.VarKind.LOCAL,
}

_TYPE_STARTS = (TokenKind.BIT, TokenKind.BOOL, TokenKind.SET,
                TokenKind.DICT, TokenKind.LPAREN)

BUILTIN_FUNCTIONS = ("abs", "length", "max", "min")


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token-stream helpers -------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]  # never past EOF: _advance stops there

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self._peek()
        if token.kind is kind:
            return self._advance()
        where = f" in {context}" if context else ""
        raise ParseError(
            f"expected {kind.value!r} but found {token.kind.value!r}{where}",
            token.span,
        )

    def _expect_gt(self, context: str) -> None:
        """Consume a ``>``, splitting a ``>>`` token if necessary."""
        token = self._peek()
        if token.kind is TokenKind.GT:
            self._advance()
            return
        if token.kind is TokenKind.SHR:
            # Split ">>" into two ">" tokens: consume one half, leave the other.
            half = Token(TokenKind.GT, ">", token.span)
            self.tokens[self.pos] = half
            return
        raise ParseError(
            f"expected '>' but found {token.kind.value!r} in {context}", token.span
        )

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> Type:
        base = self._parse_base_type()
        # Array suffixes: t[n], t[n][m] (outermost last).
        while self._at(TokenKind.LBRACKET):
            self._advance()
            size = self._expect(TokenKind.INT, "array type").value
            self._expect(TokenKind.RBRACKET, "array type")
            base = ArrayType(base, int(size))
        return base

    def _parse_base_type(self) -> Type:
        token = self._peek()
        if token.kind is TokenKind.BIT:
            self._advance()
            self._expect(TokenKind.LT, "bit type")
            width = self._expect(TokenKind.INT, "bit type").value
            self._expect_gt("bit type")
            try:
                return BitType(int(width))
            except ValueError as exc:
                raise ParseError(str(exc), token.span) from exc
        if token.kind is TokenKind.BOOL:
            self._advance()
            return BoolType()
        if token.kind is TokenKind.SET:
            self._advance()
            self._expect(TokenKind.LT, "set type")
            element = self.parse_type()
            capacity = 64
            if self._match(TokenKind.COMMA):
                capacity = int(self._expect(TokenKind.INT, "set capacity").value)
            self._expect_gt("set type")
            return SetType(element, capacity)
        if token.kind is TokenKind.DICT:
            self._advance()
            self._expect(TokenKind.LT, "dict type")
            key = self.parse_type()
            self._expect(TokenKind.COMMA, "dict type")
            value = self.parse_type()
            self._expect_gt("dict type")
            return DictType(key, value)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            elements = [self.parse_type()]
            while self._match(TokenKind.COMMA):
                elements.append(self.parse_type())
            self._expect(TokenKind.RPAREN, "tuple type")
            if len(elements) == 1:
                return elements[0]
            return TupleType(tuple(elements))
        raise ParseError(
            f"expected a type but found {token.kind.value!r}", token.span
        )

    # -- declarations ------------------------------------------------------------

    def parse_decl(self) -> ast.Decl:
        kind_token = self._advance()
        kind = _DECL_KINDS[kind_token.kind]
        if self._peek().kind in _TYPE_STARTS:
            ty: Type = self.parse_type()
        else:
            # Untyped control scalars (Figure 2: ``control thresh;``)
            # default to bit<32>.
            if kind is not ast.VarKind.CONTROL:
                raise ParseError(
                    f"{kind.value} declarations require an explicit type",
                    self._peek().span,
                )
            ty = BitType(32)
        name = self._expect(TokenKind.IDENT, "declaration").text
        init: Optional[ast.Expr] = None
        annotation: Optional[str] = None
        if self._match(TokenKind.ASSIGN):
            init = self.parse_expr()
        if self._match(TokenKind.AT):
            annotation = self._parse_annotation()
        self._expect(TokenKind.SEMI, "declaration")
        return ast.Decl(kind, ty, name, init, annotation, kind_token.span)

    def _parse_annotation(self) -> str:
        """Parse a dotted forwarding-program path: ``hdr.ipv4.src_addr``."""
        parts = [self._expect(TokenKind.IDENT, "header annotation").text]
        while self._match(TokenKind.DOT):
            parts.append(self._expect(TokenKind.IDENT, "header annotation").text)
        return ".".join(parts)

    # -- expressions ---------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: the operand, then every operator at
        ``min_level`` or tighter, each taking as its right operand what
        binds tighter than itself — so every level is left-associative."""
        left = self._parse_unary()
        while True:
            level, op = _BINARY.get(self._peek().kind, (-1, None))
            if level < min_level:
                return left
            self._advance()
            right = self._parse_binary(level + 1)
            span = left.span.merge(right.span)
            if op is None:  # ``in``
                left = ast.InExpr(item=left, container=right, span=span)
            else:
                left = ast.Binary(op=op, left=left, right=right, span=span)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        op = _UNARY.get(token.kind)
        if op is None:
            return self._parse_postfix()
        self._advance()
        operand = self._parse_unary()
        return ast.Unary(op=op, operand=operand,
                         span=token.span.merge(operand.span))

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at(TokenKind.LBRACKET):
            self._advance()
            index = self.parse_expr()
            end = self._expect(TokenKind.RBRACKET, "index expression")
            expr = ast.Index(base=expr, index=index,
                             span=expr.span.merge(end.span))
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(value=int(token.value or 0), span=token.span)
        if token.kind is TokenKind.TRUE:
            self._advance()
            return ast.BoolLit(value=True, span=token.span)
        if token.kind is TokenKind.FALSE:
            self._advance()
            return ast.BoolLit(value=False, span=token.span)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._at(TokenKind.LPAREN) and token.text in BUILTIN_FUNCTIONS:
                self._advance()
                args: List[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self.parse_expr())
                    while self._match(TokenKind.COMMA):
                        args.append(self.parse_expr())
                end = self._expect(TokenKind.RPAREN, "call")
                return ast.Call(func=token.text, args=args,
                                span=token.span.merge(end.span))
            return ast.Var(name=token.text, span=token.span)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            items = [self.parse_expr()]
            while self._match(TokenKind.COMMA):
                items.append(self.parse_expr())
            end = self._expect(TokenKind.RPAREN, "parenthesized expression")
            if len(items) == 1:
                return items[0]
            return ast.TupleExpr(items=items, span=token.span.merge(end.span))
        raise ParseError(
            f"expected an expression but found {token.kind.value!r}", token.span
        )

    # -- statements -------------------------------------------------------------------

    def parse_block(self) -> List[ast.Stmt]:
        self._expect(TokenKind.LBRACE, "block")
        stmts: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated block", self._peek().span)
            stmts.append(self.parse_stmt())
        self._expect(TokenKind.RBRACE, "block")
        return stmts

    def parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.PASS:
            self._advance()
            self._expect(TokenKind.SEMI, "pass statement")
            return ast.Pass(span=token.span)
        if token.kind is TokenKind.REJECT:
            self._advance()
            self._expect(TokenKind.SEMI, "reject statement")
            return ast.Reject(span=token.span)
        if token.kind is TokenKind.REPORT:
            self._advance()
            payload: Optional[ast.Expr] = None
            if self._match(TokenKind.LPAREN):
                payload = self.parse_expr()
                self._expect(TokenKind.RPAREN, "report payload")
            self._expect(TokenKind.SEMI, "report statement")
            return ast.Report(payload=payload, span=token.span)
        if token.kind is TokenKind.IF:
            return self._parse_if()
        if token.kind is TokenKind.FOR:
            return self._parse_for()
        return self._parse_simple_stmt()

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.IF)
        arms = []
        self._expect(TokenKind.LPAREN, "if condition")
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN, "if condition")
        arms.append((cond, self.parse_block()))
        orelse: List[ast.Stmt] = []
        while True:
            if self._at(TokenKind.ELSIF):
                self._advance()
                self._expect(TokenKind.LPAREN, "elsif condition")
                cond = self.parse_expr()
                self._expect(TokenKind.RPAREN, "elsif condition")
                arms.append((cond, self.parse_block()))
            elif self._at(TokenKind.ELSE):
                self._advance()
                if self._at(TokenKind.IF):
                    # ``else if`` sugar: treat as elsif.
                    self._advance()
                    self._expect(TokenKind.LPAREN, "else-if condition")
                    cond = self.parse_expr()
                    self._expect(TokenKind.RPAREN, "else-if condition")
                    arms.append((cond, self.parse_block()))
                    continue
                orelse = self.parse_block()
                break
            else:
                break
        return ast.If(arms=arms, orelse=orelse, span=start.span)

    def _parse_for(self) -> ast.For:
        start = self._expect(TokenKind.FOR)
        self._expect(TokenKind.LPAREN, "for loop")
        names = [self._expect(TokenKind.IDENT, "for loop variable").text]
        while self._match(TokenKind.COMMA):
            names.append(self._expect(TokenKind.IDENT, "for loop variable").text)
        self._expect(TokenKind.IN, "for loop")
        iterables = [self.parse_expr()]
        while self._match(TokenKind.COMMA):
            iterables.append(self.parse_expr())
        self._expect(TokenKind.RPAREN, "for loop")
        body = self.parse_block()
        if len(names) != len(iterables):
            raise ParseError(
                f"for loop binds {len(names)} variables but iterates over "
                f"{len(iterables)} collections",
                start.span,
            )
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ParseError(f"for loop binds {repeated[0]!r} more than once",
                             start.span)
        return ast.For(names=names, iterables=iterables, body=body, span=start.span)

    def _parse_simple_stmt(self) -> ast.Stmt:
        """Assignment, augmented assignment, or a ``push`` method call."""
        target = self._parse_postfix()
        token = self._peek()
        if token.kind is TokenKind.DOT:
            self._advance()
            method = self._expect(TokenKind.IDENT, "method call").text
            if method != "push":
                raise ParseError(f"unknown method {method!r}", token.span)
            self._expect(TokenKind.LPAREN, "push")
            value = self.parse_expr()
            self._expect(TokenKind.RPAREN, "push")
            self._expect(TokenKind.SEMI, "push statement")
            return ast.Push(target=target, value=value, span=target.span)
        if token.kind is TokenKind.ASSIGN:
            self._advance()
            value = self.parse_expr()
            self._expect(TokenKind.SEMI, "assignment")
            return ast.Assign(target=target, value=value, span=target.span)
        if token.kind in (TokenKind.PLUS_ASSIGN, TokenKind.MINUS_ASSIGN):
            self._advance()
            op = ast.BinaryOp(token.kind.value[:-1])  # "+=" -> "+"
            value = self.parse_expr()
            self._expect(TokenKind.SEMI, "augmented assignment")
            return ast.AugAssign(target=target, op=op, value=value,
                                 span=target.span)
        raise ParseError(
            f"expected a statement but found {token.kind.value!r}", token.span
        )

    # -- programs -----------------------------------------------------------------------

    def parse_program(self, source: str = "") -> ast.Program:
        decls: List[ast.Decl] = []
        while self._peek().kind in _DECL_KINDS:
            decls.append(self.parse_decl())
        init_block = self.parse_block()
        tele_block = self.parse_block()
        check_block = self.parse_block()
        if not self._at(TokenKind.EOF):
            raise ParseError(
                f"unexpected {self._peek().kind.value!r} after checker block",
                self._peek().span,
            )
        return ast.Program(
            decls=decls,
            init_block=init_block,
            tele_block=tele_block,
            check_block=check_block,
            source=source,
        )


def parse(source: str) -> ast.Program:
    """Parse Indus source text into a :class:`~repro.indus.ast.Program`."""
    return Parser(tokenize(source)).parse_program(source)


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and the LTLf translator)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    if not parser._at(TokenKind.EOF):
        raise ParseError(
            f"unexpected {parser._peek().kind.value!r} after expression",
            parser._peek().span,
        )
    return expr
