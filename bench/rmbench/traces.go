package main

import (
	"bufio"
	"io"
	"slices"
	"strings"
	"time"
)

// traceSample is one stack of `go tool pprof -traces` output: the CPU
// time it was sampled for and its function names, leaf first.
type traceSample struct {
	weight time.Duration
	frames []string
}

// parseTraces reads `go tool pprof -traces` output. Each stack follows a
// separator line; optional label lines ("key:  value") come first, then
// the leaf frame prefixed by the sample's weight, then one caller per
// line. The header before the first separator is skipped.
func parseTraces(r io.Reader) ([]traceSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var out []traceSample
	inBlock, inStack := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlock, inStack = true, false
			continue
		}
		text := strings.TrimSpace(line)
		if !inBlock || text == "" {
			continue
		}
		if !inStack {
			value, rest, ok := strings.Cut(text, " ")
			if !ok {
				continue
			}
			d, err := time.ParseDuration(value)
			if err != nil {
				continue // a label line
			}
			out = append(out, traceSample{weight: d})
			inStack = true
			text = strings.TrimSpace(rest)
		}
		last := &out[len(out)-1]
		last.frames = append(last.frames, strings.TrimSuffix(text, " (inline)"))
	}
	return out, sc.Err()
}

// layers are the module's layers the CPU profile is attributed to, in
// report order. Layer names are package names; several packages fold into
// the layer that owns them.
var layers = []string{"sim", "rtos", "codegen", "fourvar", "platform", "core", "monitor", "campaign", "tcgen", "faults", "verify", "other"}

var layerOfPkg = map[string]string{
	"sim": "sim", "rtos": "rtos", "codegen": "codegen", "fourvar": "fourvar",
	"platform": "platform", "hw": "platform", "env": "platform",
	"core": "core", "monitor": "monitor", "campaign": "campaign",
	"tcgen": "tcgen", "coverage": "tcgen", "faults": "faults",
	"verify": "verify", "statechart": "verify",
}

// runtimeBG is the pseudo-layer of samples with no frame of the module,
// such as GC workers and the idle scheduler.
const runtimeBG = "runtime_bg"

// shareKeys are the keys of cpuShares.layer.
var shareKeys = append(slices.Clone(layers), runtimeBG)

// frameLayer returns the layer of a frame, or false for a frame outside
// the module (runtime, standard library). The facade package, the
// commands' main packages and the remaining internal packages are
// "other".
func frameLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "rmtest/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if l, ok := layerOfPkg[rest]; ok {
			return l, true
		}
		return "other", true
	}
	for _, p := range []string{"rmtest.", "rmtest/", "main."} {
		if strings.HasPrefix(fn, p) {
			return "other", true
		}
	}
	return "", false
}

// handoffLeaves are the runtime functions of goroutine and channel
// handoff: select, channel send and receive, runtime locks, and the
// scheduler parking and waking goroutines.
var handoffLeaves = map[string]bool{}

func init() {
	for _, f := range strings.Fields(`selectgo sellock selunlock chanrecv chanrecv1 chanrecv2
		chansend chansend1 send recv lock2 unlock2 lockWithRank unlockWithRank wakep
		casgstatus schedule findRunnable park_m gopark goready ready runqget runqput
		runqgrab runqsteal stealWork execute gogo mcall futex futexsleep futexwakeup
		notesleep notewakeup procyield osyield usleep startm stopm mPark handoffp
		resetspinning acquirep releasep goschedImpl semacquire1 semrelease1`) {
		handoffLeaves["runtime."+f] = true
	}
}

// gcPrefixes are the runtime function-name prefixes of allocation and
// garbage collection.
var gcPrefixes = []string{
	"mallocgc", "newobject", "makeslice", "growslice", "makemap", "newarray",
	"nextFreeFast", "memclrNoHeapPointers", "gc", "scan", "greyobject",
	"findObject", "markBits", "heapBits", "typePointers", "markroot",
	"sweepone", "bgsweep", "bgscavenge", "wbBuf", "bulkBarrier",
	"deductAssistCredit", "spanOf", "profilealloc",
	"(*mspan)", "(*mcache)", "(*mcentral)", "(*mheap)", "(*gcWork)",
	"(*gcBits)", "(*sweepLocked)", "(*pageAlloc)",
}

func isGCLeaf(fn string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// cpuShares is a profile's attribution: the share of CPU time per layer
// (every layer plus runtimeBG, summing to 1) and the shares whose leaf is
// goroutine handoff or allocation and GC.
type cpuShares struct {
	layer       map[string]float64
	handoff, gc float64
}

// attribute credits each sample to the layer of its innermost frame of the
// module, and classifies it by its leaf frame.
func attribute(samples []traceSample) cpuShares {
	var total, handoff, gc time.Duration
	by := map[string]time.Duration{}
	for _, s := range samples {
		if len(s.frames) == 0 {
			continue
		}
		total += s.weight
		layer := runtimeBG
		for _, f := range s.frames {
			if l, ok := frameLayer(f); ok {
				layer = l
				break
			}
		}
		by[layer] += s.weight
		switch leaf := s.frames[0]; {
		case handoffLeaves[leaf]:
			handoff += s.weight
		case isGCLeaf(leaf):
			gc += s.weight
		}
	}
	sh := cpuShares{layer: map[string]float64{}}
	if total == 0 {
		return sh
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(total) }
	for _, l := range shareKeys {
		sh.layer[l] = share(by[l])
	}
	sh.handoff, sh.gc = share(handoff), share(gc)
	return sh
}
