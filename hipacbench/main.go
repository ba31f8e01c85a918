// Command hipacbench is the HiPAC benchmark: three workloads run
// against the engine's public surfaces (core.Engine, the ipc server
// and client over loopback TCP, WAL-shipping replication), each
// checked for correct outputs, each reporting end-to-end metrics
// (untraced) or per-layer metrics (traced). See README.md.
//
//	hipacbench --workload saa-feed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A run whose outputs
// are wrong exits non-zero and prints no metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, reported by
// every workload from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commit_p50_ms", "ms"},
	{"reaction_p50_ms", "ms"},
	{"ops_per_s", "ops/s"},
	{"scan_query_p50_ms", "ms"},
	{"join_query_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// Metrics of a layer a workload does not use read 0 on it.
var perLayer = []metricDef{
	{"client.call_mean_us", "us"},
	{"client.call_self_us", "us"},
	{"server.request_mean_us", "us"},
	{"core.op_mean_us", "us"},
	{"txn.commit_mean_us", "us"},
	{"wal.sync_mean_us", "us"},
	{"wal.commit_stall_mean_us", "us"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.group_size_mean", "count"},
	{"wal.bytes_per_commit", "B"},
	{"storage.write_amp", "ratio"},
	{"storage.checkpoints", "count"},
	{"storage.checkpoint_mean_ms", "ms"},
	{"storage.delta_records_mean", "count"},
	{"storage.wal_bytes_reclaimed", "B"},
	{"storage.snapshot_read_mean_ms", "ms"},
	{"storage.scans_per_op", "count"},
	{"storage.gets_per_op", "count"},
	{"storage.index_probes_per_op", "count"},
	{"storage.version_chain_len_mean", "count"},
	{"storage.gc_versions_reclaimed", "count"},
	{"storage.commit_shards_mean", "count"},
	{"lock.acquired_per_op", "count"},
	{"lock.waits_per_op", "count"},
	{"lock.wait_mean_us", "us"},
	{"lock.deadlocks", "count"},
	{"event.signal_mean_us", "us"},
	{"event.emissions_per_op", "count"},
	{"cep.firings", "count"},
	{"cep.instances", "count"},
	{"cep.partials_mean", "count"},
	{"cep.expired", "count"},
	{"rule.triggered_per_op", "count"},
	{"rule.separate_per_op", "count"},
	{"rule.satisfied_ratio", "ratio"},
	{"rule.action_exec_mean_us", "us"},
	{"rule.aborts_per_op", "ratio"},
	{"rule.cascade_p50_ms", "ms"},
	{"cond.eval_mean_us", "us"},
	{"cond.evals_per_op", "count"},
	{"cond.cache_hit_ratio", "ratio"},
	{"cond.shared_hit_ratio", "ratio"},
	{"plan.query_mean_ms", "ms"},
	{"plan.gather_wait_mean_us", "us"},
	{"plan.fanout_mean", "count"},
	{"repl.lag_mean_ms", "ms"},
	{"repl.lag_max_ms", "ms"},
	{"repl.batch_bytes_mean", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"tail.commit_p99_ms", "ms"},
	{"tail.reaction_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.sustained_qps", "quotes/s"},
}

func init() {
	// The traced run also reports, for every end-to-end metric, how
	// much tracing moved it (traced minus untraced).
	for _, m := range endToEnd {
		perLayer = append(perLayer, metricDef{"overhead." + m.name, m.unit})
	}
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	dir     string // scratch directory for data files
	tiny    bool   // tiny data sizes (the benchmark's own tests)
}

// check is one comparison of a workload's output against the value
// the generator predicts.
type check struct {
	name      string
	want, got int64
}

// outcome is what one pass of a workload produced.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []check
	inputs    string // digest of the generated inputs
	notes     []string
}

// failures lists the checks whose output differs from the
// prediction.
func (o *outcome) failures() []string {
	var bad []string
	for _, c := range o.checks {
		if c.want != c.got {
			bad = append(bad, fmt.Sprintf("%s: got %d, want %d", c.name, c.got, c.want))
		}
	}
	return bad
}

type workloadFunc func(cfg config, rec *recorder) (*outcome, error)

var workloads = map[string]workloadFunc{
	"saa-feed":        runSAA,
	"risk-conditions": runRisk,
	"audit-write":     runAudit,
}

// deadline bounds a whole run; past it the process reports an error
// and exits rather than outliving its caller's limit.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "saa-feed, risk-conditions or audit-write")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for data files and the span file")
	flag.Parse()

	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "hipacbench: run exceeded %s\n", deadline)
		os.Exit(3)
	})
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "hipacbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	fn := workloads[name]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "data-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: seed, seconds: seconds, dir: dir}

	pass := func(rec *recorder) (*outcome, error) {
		// Each pass builds its engines in fresh directories.
		passCfg := cfg
		var err error
		if passCfg.dir, err = os.MkdirTemp(dir, "pass-"); err != nil {
			return nil, err
		}
		o, err := fn(passCfg, rec)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %s seed=%d inputs=%s\n", name, seed, o.inputs)
		for _, n := range o.notes {
			fmt.Println("#", n)
		}
		if bad := o.failures(); len(bad) > 0 {
			return nil, fmt.Errorf("%s: wrong output:\n  %s", name, strings.Join(bad, "\n  "))
		}
		return o, nil
	}

	o, err := pass(nil)
	if err != nil {
		return err
	}
	metrics, defs := o.e2e, endToEnd
	if traced {
		rec := newRecorder()
		t, err := pass(rec)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			t.layer["overhead."+m.name] = t.e2e[m.name] - o.e2e[m.name]
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans: %s\n", path)
		var names []string
		stats := summarize(rec.snapshot())
		for n := range stats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("# span %-22s %s\n", n, stats[n])
		}
		o, metrics, defs = t, t.layer, perLayer
	}
	return report(o, metrics, defs)
}

// report prints every metric by name with its unit, then the result
// line.
func report(o *outcome, values map[string]float64, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		ms[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
