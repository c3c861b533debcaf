package codegen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rmtest/internal/randchart"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// TestEmitGoRejectsIdentifierCollisions: when two names of a chart map to
// one Go identifier, the emitted file would not compile, so EmitGo
// returns an error naming both declarations and writes nothing.
func TestEmitGoRejectsIdentifierCollisions(t *testing.T) {
	base := func() *statechart.Chart {
		return &statechart.Chart{
			Name:       "c",
			TickPeriod: time.Millisecond,
			Events:     []string{"e"},
			Vars:       []statechart.VarDecl{{Name: "x", Type: statechart.Int, Kind: statechart.Output}},
			States: []*statechart.State{
				{Name: "A", Transitions: []statechart.Transition{{To: "B", Trigger: "e", Action: "x := 1"}}},
				{Name: "B"},
			},
		}
	}
	local := func(name string) statechart.VarDecl {
		return statechart.VarDecl{Name: name, Type: statechart.Int, Kind: statechart.Local}
	}
	for _, tc := range []struct {
		name  string
		edit  func(*statechart.Chart)
		decls []string
	}{
		{"variable and state register", func(c *statechart.Chart) {
			c.Vars = append(c.Vars, local("state"))
		}, []string{"the active-state register", `variable "state"`}},
		{"two variables", func(c *statechart.Chart) {
			c.Vars = append(c.Vars, local("a_b"), local("aB"))
		}, []string{`variable "a_b"`, `variable "aB"`}},
		{"two states", func(c *statechart.Chart) {
			c.States = append(c.States, &statechart.State{Name: "Idle"}, &statechart.State{Name: "idle"})
		}, []string{`state "Idle"`, `state "idle"`}},
		{"two events", func(c *statechart.Chart) {
			c.Events = append(c.Events, "go", "Go")
		}, []string{`event "go"`, `event "Go"`}},
		{"variable and method", func(c *statechart.Chart) {
			c.Vars = append(c.Vars, local("step"))
		}, []string{"the Step method", `variable "step"`}},
		{"state and type", func(c *statechart.Chart) {
			c.States = append(c.States, &statechart.State{Name: "event"})
		}, []string{"the event type", `state "event"`}},
	} {
		c := base()
		tc.edit(c)
		cc, err := c.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		var b strings.Builder
		err = EmitGo(&b, cc, "gen")
		if err == nil {
			t.Errorf("%s: EmitGo returned nil", tc.name)
			continue
		}
		for _, d := range tc.decls {
			if !strings.Contains(err.Error(), d) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, d)
			}
		}
		if b.Len() != 0 {
			t.Errorf("%s: EmitGo wrote %d bytes before failing", tc.name, b.Len())
		}
	}
}

// TestEmitGoMatchesExec checks the emitted Go against CODE(M) on random
// charts. Each chart's emitted file is one package of a module whose
// main drives every package with the per-tick event masks and in0 values
// that drove an Exec of the same program, printing the active state and
// every variable after each tick. A run ends before the first tick on
// which Exec reports an error: the emitted code has no error path, as it
// panics on a division by zero and ends a chain at MaxChain silently.
func TestEmitGoMatchesExec(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	const charts, ticks = 60, 80
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module emitcheck\n\ngo 1.22\n")
	var imports, body, want strings.Builder
	compared, errored := 0, 0
	for seed := uint64(1); seed <= charts; seed++ {
		r := sim.NewRand(seed)
		cc, p := compileProgram(t, randchart.Chart(r))
		pkg := fmt.Sprintf("c%d", seed)
		var src strings.Builder
		if err := EmitGo(&src, cc, pkg); err != nil {
			t.Fatalf("seed %d: EmitGo: %v", seed, err)
		}
		write(pkg+"/gen.go", src.String())
		fmt.Fprintf(&imports, "\t%q\n", "emitcheck/"+pkg)

		e := NewExec(p, ZeroCostModel(), nil, nil)
		var masks, ins []string
		for i := 0; i < ticks; i++ {
			var mask uint64
			for id := range p.Events {
				if r.Bool(0.3) {
					mask |= 1 << id
				}
			}
			in := int64(r.Intn(6))
			e.SetInput("in0", in)
			if e.Step(mask).Err != nil {
				errored++
				break
			}
			masks, ins = append(masks, fmt.Sprint(mask)), append(ins, fmt.Sprint(in))
			row := []any{pkg, i, e.active}
			for _, v := range e.vars {
				row = append(row, v)
			}
			fmt.Fprintln(&want, row...)
			compared++
		}
		ident := sanitize(p.ChartName)
		fmt.Fprintf(&body, "\t{\n\t\tc, events := %s.New%s(), []%s.%sEvent{%s}\n", pkg, ident, pkg, ident, strings.Join(masks, ", "))
		fmt.Fprintf(&body, "\t\tfor i, in := range []int64{%s} {\n", strings.Join(ins, ", "))
		fmt.Fprintf(&body, "\t\t\tc.%s = in\n\t\t\tc.Step(events[i])\n", sanitize("in0"))
		fmt.Fprintf(&body, "\t\t\tfmt.Println(%q, i, int(c.State)", pkg)
		for _, v := range p.Vars {
			fmt.Fprintf(&body, ", c.%s", sanitize(v.Name))
		}
		body.WriteString(")\n\t\t}\n\t}\n")
	}
	write("main.go", "package main\n\nimport (\n\t\"fmt\"\n\n"+imports.String()+")\n\nfunc main() {\n"+body.String()+"}\n")

	var stderr strings.Builder
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run: %v\n%s", err, stderr.String())
	}
	got, exp := strings.Split(string(out), "\n"), strings.Split(want.String(), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("line %d (chart tick state vars...): emitted Go printed %q, Exec %q", i+1, got[i], exp[i])
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("emitted Go printed %d lines, Exec %d", len(got), len(exp))
	}
	t.Logf("compared %d ticks of %d charts; %d runs ended at an Exec error", compared, charts, errored)
}
