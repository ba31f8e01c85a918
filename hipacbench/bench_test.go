package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children overlapping each other: together they cover
		// [10, 50).
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild covers part of a only, not of root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		// Nested fully inside b: b's self time shrinks, root's not.
		{ID: 6, Parent: 3, Name: "e", Start: 30, End: 50},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 0, 4: 30, 5: 10, 6: 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans)
	if s := sum["root"]; s.Count != 1 || s.MeanUS != 0.1 || s.MeanSelfUS != 0.05 {
		t.Fatalf("summary of root = %+v", s)
	}
}

func TestBlockStatistics(t *testing.T) {
	var l latencies
	for i := 0; i < 3*blockSize; i++ {
		l = append(l, 1e6) // 1ms
	}
	// A stall confined to one block moves that block's p99 only.
	for i := 0; i < 50; i++ {
		l[i] = 1e9
	}
	if got := l.blockQuantile(0.99); got != 1 {
		t.Fatalf("blockQuantile = %v ms, want 1", got)
	}
	if got := l.quantile(0.99); got != 1000 {
		t.Fatalf("quantile = %v ms, want 1000", got)
	}
	done := []int64{}
	for i := 1; i <= 40; i++ {
		done = append(done, int64(i)*1e8) // 10 per second
	}
	done[39] = 100e9 // a stall before the last completion
	if got := blockRate(0, done, 10); got != 10 {
		t.Fatalf("blockRate = %v, want 10", got)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"saa-feed":        func(s int64) string { return genSAA(s, saaTiny, 1).digest },
		"risk-conditions": func(s int64) string { return genRisk(s, riskTiny, 500).digest },
		"audit-write":     func(s int64) string { return genAudit(s, auditTiny, 500).digest },
	}
	for name, gen := range gens {
		if gen(7) != gen(7) {
			t.Errorf("%s: one seed gave two inputs", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: two seeds gave one input", name)
		}
	}
}

// mustBePositive names, per workload, the checks whose predicted value
// must be non-zero in a tiny run: the rule paths each workload exists
// to exercise really fired.
var mustBePositive = map[string][]string{
	"saa-feed":        {"quotes displayed exactly once with their seq", "trades executed", "cep firings", "total shares held"},
	"risk-conditions": {"alerts raised", "sector checks fired"},
	"audit-write":     {"poison orders rejected", "orders committed", "audit rows", "orders on the replica"},
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range sortedWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 1, dir: t.TempDir(), tiny: true}
			o, err := workloads[name](cfg, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if bad := o.failures(); len(bad) > 0 {
				t.Fatalf("wrong output: %v", bad)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
			}
			for _, m := range endToEnd {
				if v, ok := o.e2e[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, %v", m.name, v, ok)
				}
			}
			for _, m := range perLayer {
				if _, ok := o.layer[m.name]; !ok && !strings.HasPrefix(m.name, "overhead.") {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			byName := map[string]check{}
			for _, c := range o.checks {
				byName[c.name] = c
			}
			for _, n := range mustBePositive[name] {
				if c, ok := byName[n]; !ok || c.want <= 0 {
					t.Errorf("check %q predicted %d (present %v): the path it checks never ran", n, c.want, ok)
				}
			}
			// Every check fails once its prediction is perturbed.
			for i := range o.checks {
				p := *o
				p.checks = append([]check(nil), o.checks...)
				p.checks[i].want++
				if bad := p.failures(); len(bad) != 1 || !strings.HasPrefix(bad[0], o.checks[i].name+":") {
					t.Errorf("perturbing %q gave failures %v", o.checks[i].name, bad)
				}
			}
		})
	}
}

func sortedWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestWrongOutputPublishesNothing runs a workload whose output is
// wrong: the run fails and prints no result line.
func TestWrongOutputPublishesNothing(t *testing.T) {
	workloads["wrong"] = func(config, *recorder) (*outcome, error) {
		return &outcome{attempted: 1, e2e: map[string]float64{}, checks: []check{{"answer", 42, 41}}}, nil
	}
	defer delete(workloads, "wrong")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run("wrong", 1, 1, false, t.TempDir())
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr == nil || !strings.Contains(runErr.Error(), "answer: got 41, want 42") {
		t.Fatalf("run error = %v", runErr)
	}
	if strings.Contains(string(out), "{") {
		t.Fatalf("a wrong run printed a result: %s", out)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, sortedWorkloads()) {
		t.Errorf("workloads %v, program has %v", names, sortedWorkloads())
	}
	for _, c := range []struct {
		listed []metric
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var want []metric
		for _, d := range c.defs {
			want = append(want, metric{d.name, d.unit})
		}
		if !reflect.DeepEqual(c.listed, want) {
			t.Errorf("BENCHMARK.json lists %v, program reports %v", c.listed, want)
		}
	}
}
