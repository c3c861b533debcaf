package statechart

import (
	"strings"
	"testing"
)

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 +",
		"(1 + 2",
		"1 2",
		"min(1)",
		"abs(1, 2)",
		"foo(1)", // unknown call parses as ref followed by junk
		"@",
		"1 $ 2",
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) should fail", src)
		}
	}
}

func TestEmptyExprIsNil(t *testing.T) {
	e, err := ParseExpr("   ")
	if err != nil || e != nil {
		t.Fatalf("e=%v err=%v", e, err)
	}
}

func TestParseAction(t *testing.T) {
	a, err := ParseAction("x := 1; y := x + 2; z := y * y;")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || a[0].Name != "x" || a[2].Name != "z" {
		t.Fatalf("parsed %v", a)
	}
	if a.NodeCount() <= 3 {
		t.Fatalf("node count %d", a.NodeCount())
	}
}

func TestParseActionEqualsAlias(t *testing.T) {
	a, err := ParseAction("x = 4")
	if err != nil || len(a) != 1 {
		t.Fatalf("a=%v err=%v", a, err)
	}
}

func TestParseActionErrors(t *testing.T) {
	bad := []string{"x", "x :=", ":= 1", "x := 1 y := 2", "1 := 2"}
	for _, src := range bad {
		if _, err := ParseAction(src); err == nil {
			t.Errorf("ParseAction(%q) should fail", src)
		}
	}
}

func TestParseTrigger(t *testing.T) {
	cases := []struct {
		src  string
		kind TriggerKind
		ev   string
		n    int64
	}{
		{"", TrigNone, "", 0},
		{"i_BolusReq", TrigEvent, "i_BolusReq", 0},
		{"after(10, E_CLK)", TrigAfter, "", 10},
		{"before(100, E_CLK)", TrigBefore, "", 100},
		{"at(4000, E_CLK)", TrigAt, "", 4000},
	}
	for _, c := range cases {
		tr, err := ParseTrigger(c.src)
		if err != nil {
			t.Fatalf("ParseTrigger(%q): %v", c.src, err)
		}
		if tr.Kind != c.kind || tr.Event != c.ev || tr.N != c.n {
			t.Errorf("ParseTrigger(%q) = %+v", c.src, tr)
		}
	}
}

func TestParseTriggerErrors(t *testing.T) {
	bad := []string{
		"after(10)",
		"after(10, WRONG_CLK)",
		"at(x, E_CLK)",
		"two events",
		"before 100",
	}
	for _, src := range bad {
		if _, err := ParseTrigger(src); err == nil {
			t.Errorf("ParseTrigger(%q) should fail", src)
		}
	}
}

func TestTriggerRoundTrip(t *testing.T) {
	for _, src := range []string{"i_Evt", "after(3, E_CLK)", "before(100, E_CLK)", "at(4000, E_CLK)"} {
		tr, err := ParseTrigger(src)
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := ParseTrigger(tr.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", tr.String(), err)
		}
		if tr != tr2 {
			t.Fatalf("round trip %q -> %+v -> %+v", src, tr, tr2)
		}
	}
}

func TestRefsCollects(t *testing.T) {
	e := mustExpr(t, "a + min(b, c) * -d")
	got := Refs(e, nil)
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	if len(got) != 4 {
		t.Fatalf("refs=%v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected ref %q", n)
		}
	}
}

func TestNodeCount(t *testing.T) {
	if n := NodeCount(mustExpr(t, "1")); n != 1 {
		t.Fatalf("n=%d", n)
	}
	if n := NodeCount(mustExpr(t, "1 + 2 * 3")); n != 5 {
		t.Fatalf("n=%d", n)
	}
	if NodeCount(nil) != 0 {
		t.Fatal("nil should count 0")
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	for _, src := range []string{"#", "`x`", "\"s\""} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
	if !strings.Contains(func() string {
		_, err := lex("?")
		return err.Error()
	}(), "unexpected character") {
		t.Fatal("error should mention unexpected character")
	}
}
