package codegen

import (
	"rmtest/internal/statechart"
)

// Optimize performs constant folding and algebraic simplification on an
// action-language expression, mirroring the optimisation passes of
// production code generators. The result is evaluation-equivalent to the
// input: it produces the same value and the same error behaviour for
// every environment. Simplifications that would drop a subexpression are
// applied only when the subexpression is error-free (contains no division
// or modulo), so runtime division-by-zero diagnostics are never lost.
func Optimize(e statechart.Expr) statechart.Expr {
	switch n := e.(type) {
	case *statechart.Unary:
		x := Optimize(n.X)
		if v, ok := constOf(x); ok {
			switch n.Op {
			case "-":
				return &statechart.NumLit{Value: -v}
			case "!":
				return boolLit(v == 0)
			}
		}
		return &statechart.Unary{Op: n.Op, X: x}
	case *statechart.Binary:
		l := Optimize(n.L)
		r := Optimize(n.R)
		if out := foldBinary(n.Op, l, r); out != nil {
			return out
		}
		return &statechart.Binary{Op: n.Op, L: l, R: r}
	case *statechart.Call:
		args := make([]statechart.Expr, len(n.Args))
		consts := make([]int64, len(n.Args))
		allConst := true
		for i, a := range n.Args {
			args[i] = Optimize(a)
			if v, ok := constOf(args[i]); ok {
				consts[i] = v
			} else {
				allConst = false
			}
		}
		if allConst {
			switch n.Name {
			case "abs":
				v := consts[0]
				if v < 0 {
					v = -v
				}
				return &statechart.NumLit{Value: v}
			case "min":
				if consts[0] < consts[1] {
					return &statechart.NumLit{Value: consts[0]}
				}
				return &statechart.NumLit{Value: consts[1]}
			case "max":
				if consts[0] > consts[1] {
					return &statechart.NumLit{Value: consts[0]}
				}
				return &statechart.NumLit{Value: consts[1]}
			}
		}
		return &statechart.Call{Name: n.Name, Args: args}
	default:
		return e
	}
}

// OptimizeAction optimises every assignment's right-hand side.
func OptimizeAction(a statechart.Action) statechart.Action {
	if len(a) == 0 {
		return a
	}
	out := make(statechart.Action, len(a))
	for i, as := range a {
		out[i] = &statechart.Assign{Name: as.Name, X: Optimize(as.X)}
	}
	return out
}

func constOf(e statechart.Expr) (int64, bool) {
	switch n := e.(type) {
	case *statechart.NumLit:
		return n.Value, true
	case *statechart.BoolLit:
		if n.Value {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func boolLit(b bool) statechart.Expr { return &statechart.BoolLit{Value: b} }

// errorFree reports whether evaluating e can never produce a runtime
// error (division/modulo are the only error sources in the language).
func errorFree(e statechart.Expr) bool {
	switch n := e.(type) {
	case *statechart.NumLit, *statechart.BoolLit, *statechart.Ref:
		return true
	case *statechart.Unary:
		return errorFree(n.X)
	case *statechart.Binary:
		if n.Op == "/" || n.Op == "%" {
			return false
		}
		return errorFree(n.L) && errorFree(n.R)
	case *statechart.Call:
		for _, a := range n.Args {
			if !errorFree(a) {
				return false
			}
		}
		return true
	}
	return false
}

// asBool wraps e so the result is normalised to 0/1 while preserving
// evaluation order and errors: (e != 0).
func asBool(e statechart.Expr) statechart.Expr {
	if v, ok := constOf(e); ok {
		return boolLit(v != 0)
	}
	// Comparisons and logical operators already yield 0/1.
	if b, ok := e.(*statechart.Binary); ok {
		switch b.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return e
		}
	}
	if u, ok := e.(*statechart.Unary); ok && u.Op == "!" {
		return e
	}
	return &statechart.Binary{Op: "!=", L: e, R: &statechart.NumLit{Value: 0}}
}

// foldBinary returns a simplified expression for op(l, r), or nil when no
// simplification applies. l and r are already optimised.
func foldBinary(op string, l, r statechart.Expr) statechart.Expr {
	lv, lc := constOf(l)
	rv, rc := constOf(r)
	// Full constant folding (guarding division by zero).
	if lc && rc {
		switch op {
		case "+":
			return &statechart.NumLit{Value: lv + rv}
		case "-":
			return &statechart.NumLit{Value: lv - rv}
		case "*":
			return &statechart.NumLit{Value: lv * rv}
		case "/":
			if rv != 0 {
				return &statechart.NumLit{Value: lv / rv}
			}
		case "%":
			if rv != 0 {
				return &statechart.NumLit{Value: lv % rv}
			}
		case "==":
			return boolLit(lv == rv)
		case "!=":
			return boolLit(lv != rv)
		case "<":
			return boolLit(lv < rv)
		case "<=":
			return boolLit(lv <= rv)
		case ">":
			return boolLit(lv > rv)
		case ">=":
			return boolLit(lv >= rv)
		case "&&":
			return boolLit(lv != 0 && rv != 0)
		case "||":
			return boolLit(lv != 0 || rv != 0)
		}
		return nil
	}
	switch op {
	case "&&":
		if lc {
			if lv == 0 {
				// false && x: x is never evaluated at runtime.
				return boolLit(false)
			}
			return asBool(r) // true && x
		}
		// x && true: x is always evaluated; result is bool(x).
		if rc && rv != 0 {
			return asBool(l)
		}
	case "||":
		if lc {
			if lv != 0 {
				return boolLit(true) // true || x: x never evaluated
			}
			return asBool(r) // false || x
		}
		if rc && rv == 0 {
			return asBool(l) // x || false
		}
	case "+":
		if lc && lv == 0 {
			return r
		}
		if rc && rv == 0 {
			return l
		}
	case "-":
		if rc && rv == 0 {
			return l
		}
	case "*":
		if rc && rv == 1 {
			return l
		}
		if lc && lv == 1 {
			return r
		}
		if rc && rv == 0 && errorFree(l) {
			return &statechart.NumLit{Value: 0}
		}
		if lc && lv == 0 && errorFree(r) {
			return &statechart.NumLit{Value: 0}
		}
	case "/":
		if rc && rv == 1 {
			return l
		}
	case "%":
		if rc && rv == 1 && errorFree(l) {
			return &statechart.NumLit{Value: 0}
		}
	}
	return nil
}
