package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/storage"
)

// monitor samples a workload's gauges every 10ms during the measured
// window.
type monitor struct {
	stopc   chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples [][]float64
}

func startMonitor(sample func() []float64) *monitor {
	m := &monitor{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-t.C:
				s := sample()
				m.mu.Lock()
				m.samples = append(m.samples, s)
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// stop ends sampling and returns the samples.
func (m *monitor) stop() [][]float64 {
	close(m.stopc)
	<-m.done
	return m.samples
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// chainFiles tracks the snapshot files a store writes: each distinct
// (name, modification time) is one file written, counted at its
// largest observed size. Files present when tracking starts are not
// counted.
type chainFiles struct {
	dir  string
	mu   sync.Mutex
	seen map[string]int64
	old  map[string]bool
}

func trackChainFiles(dir string) *chainFiles {
	c := &chainFiles{dir: dir, seen: map[string]int64{}, old: map[string]bool{}}
	for k := range c.scan() {
		c.old[k] = true
	}
	return c
}

func (c *chainFiles) scan() map[string]int64 {
	out := map[string]int64{}
	names, _ := storage.ChainFileNames(c.dir) // a racing checkpoint may remove a file; the next scan sees the rest
	for _, n := range names {
		fi, err := os.Stat(filepath.Join(c.dir, n))
		if err != nil {
			continue
		}
		out[n+"@"+fi.ModTime().String()] = fi.Size()
	}
	return out
}

func (c *chainFiles) sample() {
	files := c.scan()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, size := range files {
		if !c.old[k] && size > c.seen[k] {
			c.seen[k] = size
		}
	}
}

// written returns the bytes of snapshot files written since tracking
// started.
func (c *chainFiles) written() float64 {
	c.sample()
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, size := range c.seen {
		n += size
	}
	return float64(n)
}

// writeAmp is bytes written to the data directory (WAL appends plus
// snapshot files) per byte of user payload.
func writeAmp(d delta, snapshots float64, payload float64) float64 {
	return ratio(float64(d.b.st.Store.WALBytes-d.a.st.Store.WALBytes)+snapshots, payload)
}

// setUp builds a workload's environment repeatedly and returns the
// last build with the median build time: at least three builds, and
// more while they add up to less than a second, so a set-up of a few
// milliseconds is still timed over many samples. Every build but the
// last is torn down at once.
func setUp[E any](build func(i int) (E, error), teardown func(E)) (E, float64, error) {
	var times []float64
	var total float64
	for i := 0; ; i++ {
		t0 := time.Now()
		env, err := build(i)
		if err != nil {
			return env, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		times, total = append(times, d), total+d
		if i >= 2 && (total >= 1 || i >= 14) {
			return env, median(times), nil
		}
		teardown(env)
	}
}
