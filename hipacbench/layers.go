package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// counters is one reading of everything the engine and the Go runtime
// count: engine component stats, the obs histograms (of the engine
// and, in audit-write, of the replica), memory statistics, process CPU
// time and GC CPU time. Per-layer metrics are deltas of two readings
// taken around the measured window.
type counters struct {
	st      core.Stats
	hist    map[string]obs.HistogramSnapshot
	replica map[string]obs.HistogramSnapshot
	mem     runtime.MemStats
	cpu     time.Duration
	gcCPU   float64 // seconds
	allCPU  float64 // seconds, as the runtime accounts it
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters(e *core.Engine, replica *obs.Obs) counters {
	c := counters{st: e.Stats(), hist: e.Obs.Snapshot().Hist}
	if replica != nil {
		c.replica = replica.Snapshot().Hist
	}
	runtime.ReadMemStats(&c.mem)
	c.cpu = processCPU()
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is the difference of two readings.
type delta struct{ a, b counters }

// histMean is the mean of the observations a histogram received
// between two snapshots, in microseconds (0 when there were none).
// Count histograms store each count as that many microseconds, so
// for them it is the mean count.
func histMean(a, b map[string]obs.HistogramSnapshot, name string) float64 {
	x, y := a[name], b[name]
	if y.Count == x.Count {
		return 0
	}
	return float64(y.SumNS-x.SumNS) / float64(y.Count-x.Count) / 1e3
}

func (d delta) mean(name string) float64 { return histMean(d.a.hist, d.b.hist, name) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndCosts returns the process-wide costs per completed op:
// CPU microseconds and heap allocations.
func (d delta) endToEndCosts(ops float64) (cpuUS, allocs float64) {
	return ratio(float64(d.b.cpu-d.a.cpu)/1e3, ops), ratio(float64(d.b.mem.Mallocs-d.a.mem.Mallocs), ops)
}

// layerMetrics derives the per-layer metrics of one measured window.
// ops is the number of completed triggering operations; spans are the
// benchmark's own spans of the window (nil when untraced); extra
// holds the metrics a workload measures itself (load generator,
// replica lag samples, bytes written).
func layerMetrics(d delta, ops float64, spans map[string]spanStat, extra map[string]float64) map[string]float64 {
	a, b := d.a.st, d.b.st
	perOp := func(x, y uint64) float64 { return ratio(float64(y-x), ops) }
	evals := float64(b.Conditions.Evaluations - a.Conditions.Evaluations)
	cacheHits := float64(b.Conditions.CacheHits - a.Conditions.CacheHits)
	shared := float64(b.Conditions.SharedHits - a.Conditions.SharedHits)
	m := map[string]float64{
		"server.request_mean_us": d.mean("ipc_request"),
		"core.op_mean_us":        d.mean("op"),
		"txn.commit_mean_us":     d.mean("txn_commit"),

		"wal.sync_mean_us":         d.mean("wal_sync"),
		"wal.commit_stall_mean_us": d.mean("commit_stall"),
		"wal.fsyncs_per_commit":    ratio(float64(b.Store.WALFsyncs-a.Store.WALFsyncs), float64(b.Store.WALSyncRequests-a.Store.WALSyncRequests)),
		"wal.group_size_mean":      d.mean("wal_group_size"),
		"wal.bytes_per_commit":     ratio(float64(b.Store.WALBytes-a.Store.WALBytes), float64(b.Store.WALSyncRequests-a.Store.WALSyncRequests)),

		"storage.checkpoints":         float64(b.Store.Checkpoints - a.Store.Checkpoints),
		"storage.checkpoint_mean_ms":  d.mean("checkpoint") / 1e3,
		"storage.delta_records_mean":  d.mean("delta_records"),
		"storage.wal_bytes_reclaimed": float64(b.Store.WALBytesReclaimed - a.Store.WALBytesReclaimed),

		"storage.snapshot_read_mean_ms": d.mean("snapshot_read") / 1e3,
		"storage.scans_per_op":          perOp(a.Store.Scans, b.Store.Scans),
		"storage.gets_per_op":           perOp(a.Store.Gets, b.Store.Gets),
		"storage.index_probes_per_op":   perOp(a.Store.IndexProbes, b.Store.IndexProbes),

		"storage.version_chain_len_mean": d.mean("version_chain_len"),
		"storage.gc_versions_reclaimed":  float64(b.Store.VersionsReclaimed - a.Store.VersionsReclaimed),
		"storage.commit_shards_mean":     d.mean("commit_shards"),

		"lock.acquired_per_op": perOp(a.Locks.Acquired, b.Locks.Acquired),
		"lock.waits_per_op":    perOp(a.Locks.Waited, b.Locks.Waited),
		"lock.wait_mean_us":    d.mean("lock_wait"),
		"lock.deadlocks":       float64(b.Locks.Deadlocks - a.Locks.Deadlocks),

		"event.signal_mean_us":     d.mean("signal"),
		"event.emissions_per_op":   perOp(a.Detectors.Emissions, b.Detectors.Emissions),
		"cep.firings":              float64(b.Detectors.CEPFirings - a.Detectors.CEPFirings),
		"cep.instances":            float64(b.Detectors.CEPInstances),
		"cep.partials_mean":        d.mean("cep_partials"),
		"cep.expired":              float64(b.Detectors.CEPExpired - a.Detectors.CEPExpired),
		"rule.triggered_per_op":    perOp(a.Rules.Triggered, b.Rules.Triggered),
		"rule.separate_per_op":     perOp(a.Rules.SeparateFirings, b.Rules.SeparateFirings),
		"rule.satisfied_ratio":     ratio(float64(b.Rules.ConditionsSatisfied-a.Rules.ConditionsSatisfied), float64(b.Rules.Triggered-a.Rules.Triggered)),
		"rule.action_exec_mean_us": d.mean("action_exec"),

		"cond.eval_mean_us":        d.mean("cond_eval"),
		"cond.evals_per_op":        ratio(evals, ops),
		"cond.cache_hit_ratio":     ratio(cacheHits, cacheHits+evals),
		"cond.shared_hit_ratio":    ratio(shared, shared+cacheHits+evals),
		"plan.gather_wait_mean_us": d.mean("plan_gather_wait"),
		"plan.fanout_mean":         d.mean("plan_parallel_fanout"),

		"repl.lag_mean_ms":      histMean(d.a.replica, d.b.replica, "repl_lag") / 1e3,
		"repl.batch_bytes_mean": d.mean("repl_batch_bytes"),

		"runtime.gc_cpu_frac":       ratio(d.b.gcCPU-d.a.gcCPU, d.b.allCPU-d.a.allCPU),
		"runtime.gc_cycles_per_kop": ratio(float64(d.b.mem.NumGC-d.a.mem.NumGC)*1000, ops),
	}
	// The benchmark's own spans: client calls over ipc and queries
	// through Engine.Query.
	var callN, callSum float64
	for name, s := range spans {
		if len(name) > 7 && name[:7] == "client." {
			callN += float64(s.Count)
			callSum += float64(s.Count) * s.MeanUS
		}
	}
	m["client.call_mean_us"] = ratio(callSum, callN)
	m["client.call_self_us"] = 0
	if callN > 0 {
		m["client.call_self_us"] = m["client.call_mean_us"] - m["server.request_mean_us"]
	}
	m["plan.query_mean_ms"] = spans["engine.query"].MeanUS / 1e3
	for k, v := range extra {
		m[k] = v
	}
	return m
}
