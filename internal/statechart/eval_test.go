package statechart_test

import (
	"testing"
	"testing/quick"

	"rmtest/internal/interp"
	"rmtest/internal/statechart"
)

// The tests in this file evaluate parsed expressions with the chart
// interpreter's evaluator (internal/interp).

func mustExpr(t *testing.T, src string) statechart.Expr {
	t.Helper()
	e, err := statechart.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func evalWith(t *testing.T, src string, env map[string]int64) int64 {
	t.Helper()
	e := mustExpr(t, src)
	v, err := interp.Eval(e, func(n string) (int64, bool) { x, ok := env[n]; return x, ok })
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestExprArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 - 4 - 3", 3},
		{"7 / 2", 3},
		{"7 % 3", 1},
		{"-5 + 2", -3},
		{"- (2 + 3)", -5},
		{"abs(-4)", 4},
		{"min(3, 9)", 3},
		{"max(3, 9)", 9},
		{"min(3, max(1, 2))", 2},
	}
	for _, c := range cases {
		if got := evalWith(t, c.src, nil); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestExprComparisonAndLogic(t *testing.T) {
	env := map[string]int64{"x": 5, "y": 0}
	cases := []struct {
		src  string
		want int64
	}{
		{"x == 5", 1},
		{"x != 5", 0},
		{"x < 6 && x > 4", 1},
		{"x <= 5", 1},
		{"x >= 6", 0},
		{"y || x > 0", 1},
		{"!y", 1},
		{"!x", 0},
		{"true && !false", 1},
		{"x > 0 && y == 0 || false", 1},
		{"1 + 2 == 3", 1},
	}
	for _, c := range cases {
		if got := evalWith(t, c.src, env); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestShortCircuitSkipsDivisionByZero(t *testing.T) {
	// && short-circuits: the division by zero on the right must not run.
	if got := evalWith(t, "false && 1/0 == 0", nil); got != 0 {
		t.Fatalf("got %d", got)
	}
	if got := evalWith(t, "true || 1/0 == 0", nil); got != 1 {
		t.Fatalf("got %d", got)
	}
}

func TestDivisionByZeroIsError(t *testing.T) {
	e := mustExpr(t, "1 / 0")
	if _, err := interp.Eval(e, func(string) (int64, bool) { return 0, false }); err == nil {
		t.Fatal("expected error")
	}
	e = mustExpr(t, "1 % 0")
	if _, err := interp.Eval(e, func(string) (int64, bool) { return 0, false }); err == nil {
		t.Fatal("expected error")
	}
}

func TestUndefinedVariableIsError(t *testing.T) {
	e := mustExpr(t, "ghost + 1")
	if _, err := interp.Eval(e, func(string) (int64, bool) { return 0, false }); err == nil {
		t.Fatal("expected error")
	}
}

// Property: the printed form of any parsed expression re-parses to an
// expression with identical evaluation on a fixed environment.
func TestExprStringRoundTrip(t *testing.T) {
	srcs := []string{
		"a + b * c - d",
		"(a + b) * (c - d)",
		"a < b && c >= d || !e",
		"min(a, b) + max(c, abs(d))",
		"a % (b + 1) / 2",
	}
	env := func(n string) (int64, bool) {
		return int64(len(n)) + 3, true // deterministic non-trivial values
	}
	for _, src := range srcs {
		e1 := mustExpr(t, src)
		e2, err := statechart.ParseExpr(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", src, e1.String(), err)
		}
		v1, err1 := interp.Eval(e1, env)
		v2, err2 := interp.Eval(e2, env)
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Fatalf("%q: %d vs %d", src, v1, v2)
		}
	}
}

// Property: random well-formed comparison chains never produce values
// outside {0,1}.
func TestBooleanResultsAreZeroOne(t *testing.T) {
	f := func(a, b int32) bool {
		env := map[string]int64{"a": int64(a), "b": int64(b)}
		for _, src := range []string{"a < b", "a == b", "a >= b", "a != b && a <= b"} {
			v := evalWith(t, src, env)
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
