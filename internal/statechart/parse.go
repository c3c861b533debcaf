package statechart

import (
	"fmt"
	"strings"
)

// parser is a recursive-descent parser over a token stream.
type parser struct {
	toks []token
	i    int
	src  string
}

func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, src: src}, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) take() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("statechart: %s in %q", fmt.Sprintf(format, args...), p.src)
}

func (p *parser) expectOp(op string) error {
	t := p.take()
	if t.kind != tokOp || t.text != op {
		return p.errf("expected %q, found %s", op, t)
	}
	return nil
}

// ParseExpr parses a guard/expression string. An empty (or blank) string
// yields nil, meaning "always true" for guards.
func ParseExpr(src string) (Expr, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input at %s", p.peek())
	}
	return e, nil
}

// ParseAction parses a semicolon-separated list of assignments. An empty
// string yields an empty action.
func ParseAction(src string) (Action, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var acts Action
	for {
		t := p.take()
		if t.kind != tokIdent {
			return nil, p.errf("expected assignment target, found %s", t)
		}
		op := p.take()
		if op.kind != tokOp || (op.text != ":=" && op.text != "=") {
			return nil, p.errf("expected := after %q, found %s", t.text, op)
		}
		e, err := p.parseBinary(0)
		if err != nil {
			return nil, err
		}
		acts = append(acts, &Assign{Name: t.text, X: e})
		if p.atEOF() {
			return acts, nil
		}
		if err := p.expectOp(";"); err != nil {
			return nil, err
		}
		if p.atEOF() { // trailing semicolon allowed
			return acts, nil
		}
	}
}

// ParseTrigger parses a transition trigger: empty, an event name, or one
// of the temporal operators after/before/at(n, E_CLK).
func ParseTrigger(src string) (Trigger, error) {
	if strings.TrimSpace(src) == "" {
		return Trigger{Kind: TrigNone}, nil
	}
	p, err := newParser(src)
	if err != nil {
		return Trigger{}, err
	}
	t := p.take()
	if t.kind != tokIdent {
		return Trigger{}, p.errf("expected event or temporal operator, found %s", t)
	}
	var kind TriggerKind
	switch t.text {
	case "after":
		kind = TrigAfter
	case "before":
		kind = TrigBefore
	case "at":
		kind = TrigAt
	default:
		if !p.atEOF() {
			return Trigger{}, p.errf("trailing input after event %q", t.text)
		}
		return Trigger{Kind: TrigEvent, Event: t.text}, nil
	}
	if err := p.expectOp("("); err != nil {
		return Trigger{}, err
	}
	n := p.take()
	if n.kind != tokNumber {
		return Trigger{}, p.errf("expected tick count in %s(...), found %s", t.text, n)
	}
	if err := p.expectOp(","); err != nil {
		return Trigger{}, err
	}
	clk := p.take()
	if clk.kind != tokIdent || clk.text != "E_CLK" {
		return Trigger{}, p.errf("temporal operators count E_CLK, found %s", clk)
	}
	if err := p.expectOp(")"); err != nil {
		return Trigger{}, err
	}
	if !p.atEOF() {
		return Trigger{}, p.errf("trailing input at %s", p.peek())
	}
	return Trigger{Kind: kind, N: n.num}, nil
}

// Binary operator precedence, loosest first.
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp {
			return left, nil
		}
		prec, ok := precedence[t.text]
		if !ok || prec <= minPrec {
			return left, nil
		}
		p.take()
		right, err := p.parseBinary(prec)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "-" || t.text == "!") {
		p.take()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.text, X: x}, nil
	}
	return p.parsePrimary()
}

var builtins = map[string]int{"abs": 1, "min": 2, "max": 2}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.take()
	switch t.kind {
	case tokNumber:
		return &NumLit{Value: t.num}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return &BoolLit{Value: true}, nil
		case "false":
			return &BoolLit{Value: false}, nil
		}
		if nargs, ok := builtins[t.text]; ok && p.peek().kind == tokOp && p.peek().text == "(" {
			p.take()
			var args []Expr
			for {
				a, err := p.parseBinary(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				nxt := p.take()
				if nxt.kind == tokOp && nxt.text == ")" {
					break
				}
				if nxt.kind != tokOp || nxt.text != "," {
					return nil, p.errf("expected , or ) in call to %s, found %s", t.text, nxt)
				}
			}
			if len(args) != nargs {
				return nil, p.errf("%s takes %d arguments, got %d", t.text, nargs, len(args))
			}
			return &Call{Name: t.text, Args: args}, nil
		}
		return &Ref{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			e, err := p.parseBinary(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s", t)
}

// Refs appends the names of all variables referenced by e to out and
// returns it; used by validation.
func Refs(e Expr, out []string) []string {
	switch n := e.(type) {
	case *Ref:
		return append(out, n.Name)
	case *Unary:
		return Refs(n.X, out)
	case *Binary:
		return Refs(n.R, Refs(n.L, out))
	case *Call:
		for _, a := range n.Args {
			out = Refs(a, out)
		}
	}
	return out
}
