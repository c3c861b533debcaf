package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

func TestReferenceCheck(t *testing.T) {
	b := &bench{root: "../.."}
	r := b.newRun(workloads[0], 42)
	if err := r.prepare(1); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/tablei_seed42_prepr.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !r.check(42, golden) {
		t.Error("the seed-42 golden does not match itself")
	}
	changed := bytes.Replace(golden, []byte("pass"), []byte("FAIL"), 1)
	if r.check(42, changed) {
		t.Error("an output differing in one field matched the golden")
	}
	if r.check(43, golden) {
		t.Error("an op without a reference passed")
	}

	flow := b.newRun(workloads[3], 7)
	if !flow.check(7, []byte("first")) || !flow.check(7, []byte("first")) {
		t.Error("a self-referenced op does not match the first output of its seed")
	}
	if flow.check(7, []byte("second")) {
		t.Error("a self-referenced op differing from the first output passed")
	}
}

func TestParseCounters(t *testing.T) {
	stderr := []byte("EVALUATION CACHE. Content-addressed memoisation of candidate evaluations\n\n" +
		"counter           value\n-----------------------\n" +
		"lookups              60\nhits                 16\ndeduped               1\nmisses               43\n" +
		"evictions             0\nentries           43/4096\n\n28.3% of lookups reused a prior evaluation\n")
	c, ok := parseCounters(stderr)
	if !ok || c != (cacheCounters{lookups: 60, reused: 17}) {
		t.Errorf("parseCounters = %+v, %v", c, ok)
	}
	if _, ok := parseCounters([]byte(`{"cache": {"lookups": 60}}`)); ok {
		t.Error("a changed report format parsed as counters")
	}
}

// rmbench emits exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		E2E   []struct{ Name, Unit string } `json:"end_to_end"`
		Layer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	r := (&bench{}).newRun(workloads[2], 42)
	r.attempted = 1
	r.plain = []opResult{{wallMS: 1, cpuMS: 1, rssMB: 1}}
	r.traced = r.plain
	r.calib = []float64{calibrationMS}
	r.setupTimes = []float64{0.001}
	e2e, err := r.endToEndResult()
	if err != nil {
		t.Fatal(err)
	}
	layer, err := r.layerResult(nil, cpuShares{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		got  map[string]metric
	}{{doc.E2E, e2e.Metrics}, {doc.Layer, layer.Metrics}} {
		want := map[string]string{}
		for _, m := range c.decl {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for name, m := range c.got {
			got[name] = m.Unit
		}
		if !maps.Equal(got, want) {
			t.Errorf("emitted %v\ndeclared %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
		}
	}
}
