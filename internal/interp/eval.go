package interp

import (
	"fmt"

	"rmtest/internal/statechart"
)

// Eval evaluates e against env. Booleans are represented as 0/1. Division
// or modulo by zero returns an error rather than panicking so that a
// malformed model surfaces as a test failure, not a crash.
func Eval(e statechart.Expr, env func(name string) (int64, bool)) (int64, error) {
	switch n := e.(type) {
	case *statechart.NumLit:
		return n.Value, nil
	case *statechart.BoolLit:
		if n.Value {
			return 1, nil
		}
		return 0, nil
	case *statechart.Ref:
		v, ok := env(n.Name)
		if !ok {
			return 0, fmt.Errorf("interp: undefined variable %q", n.Name)
		}
		return v, nil
	case *statechart.Unary:
		x, err := Eval(n.X, env)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case "-":
			return -x, nil
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *statechart.Binary:
		l, err := Eval(n.L, env)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch n.Op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := Eval(n.R, env)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := Eval(n.R, env)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("interp: division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("interp: modulo by zero")
			}
			return l % r, nil
		case "==":
			return boolToInt(l == r), nil
		case "!=":
			return boolToInt(l != r), nil
		case "<":
			return boolToInt(l < r), nil
		case "<=":
			return boolToInt(l <= r), nil
		case ">":
			return boolToInt(l > r), nil
		case ">=":
			return boolToInt(l >= r), nil
		}
	case *statechart.Call:
		args := make([]int64, len(n.Args))
		for i, a := range n.Args {
			v, err := Eval(a, env)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		switch n.Name {
		case "abs":
			if args[0] < 0 {
				return -args[0], nil
			}
			return args[0], nil
		case "min":
			if args[0] < args[1] {
				return args[0], nil
			}
			return args[1], nil
		case "max":
			if args[0] > args[1] {
				return args[0], nil
			}
			return args[1], nil
		}
	}
	return 0, fmt.Errorf("interp: cannot evaluate %v", e)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
