package statechart

// VarChange is an output variable change observed during a step.
type VarChange struct {
	Name string
	From int64
	To   int64
}

// MaxChain bounds the number of chained transitions within a single
// super-step; exceeding it indicates a livelocked model.
const MaxChain = 64

// MaxTemporalConst returns the largest tick constant appearing in any
// temporal trigger of the chart; the model checker uses it to saturate
// counters soundly.
func (cc *Compiled) MaxTemporalConst() int64 {
	var max int64
	for _, t := range cc.trans {
		if t.trig.Kind == TrigAfter || t.trig.Kind == TrigBefore || t.trig.Kind == TrigAt {
			if t.trig.N > max {
				max = t.trig.N
			}
		}
	}
	return max
}
