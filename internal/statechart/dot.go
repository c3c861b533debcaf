package statechart

import (
	"fmt"
	"strings"
)

// DOT renders the chart as a Graphviz digraph: composites become
// clusters, the initial state gets an entry arrow, and transitions are
// labelled trigger[guard]/action. The output is deterministic, suitable
// for golden tests and documentation pipelines.
func (cc *Compiled) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", cc.chart.Name)
	b.WriteString("  rankdir=LR;\n  node [shape=box, style=rounded];\n")
	b.WriteString("  __init [shape=point];\n")

	var emit func(s *compiledState, indent string)
	emit = func(s *compiledState, indent string) {
		if len(s.children) == 0 {
			fmt.Fprintf(&b, "%s%q;\n", indent, s.name)
			return
		}
		fmt.Fprintf(&b, "%ssubgraph \"cluster_%s\" {\n", indent, s.name)
		fmt.Fprintf(&b, "%s  label=%q;\n", indent, s.name)
		for _, c := range s.children {
			emit(c, indent+"  ")
		}
		fmt.Fprintf(&b, "%s}\n", indent)
	}
	for _, s := range cc.order {
		if s.parent == nil {
			emit(s, "  ")
		}
	}

	// Entry arrow to the initial leaf.
	fmt.Fprintf(&b, "  __init -> %q;\n", cc.InitialLeaf())

	// Transitions: edges anchor at representative leaves (a composite's
	// initial leaf) but are labelled with the declared endpoints.
	leafOf := func(s *compiledState) string {
		for s.initial != nil {
			s = s.initial
		}
		return s.name
	}
	for _, t := range cc.trans {
		var parts []string
		if t.trig.Kind != TrigNone {
			parts = append(parts, t.trig.String())
		}
		if t.guard != nil {
			parts = append(parts, "["+t.guard.String()+"]")
		}
		if len(t.action) > 0 {
			parts = append(parts, "/ "+t.action.String())
		}
		attrs := fmt.Sprintf("label=%q", strings.Join(parts, " "))
		if len(t.from.children) > 0 {
			attrs += fmt.Sprintf(", ltail=\"cluster_%s\"", t.from.name)
		}
		if len(t.to.children) > 0 {
			attrs += fmt.Sprintf(", lhead=\"cluster_%s\"", t.to.name)
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", leafOf(t.from), leafOf(t.to), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
