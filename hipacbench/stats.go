package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"
)

// latencies collects durations of one kind of operation.
type latencies []time.Duration

// quantile returns the q-quantile (0 < q <= 1) in milliseconds by the
// nearest-rank method, or 0 for an empty sample.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return ms(s[rank])
}

// blockSize is the number of consecutive samples over which one tail
// percentile is taken: at least ten samples lie beyond a p99.
const blockSize = 1000

// blockQuantile splits the samples, in the order they were taken,
// into blocks of blockSize (a short last block joins the one before)
// and returns the median of the blocks' q-quantiles. One stall, such
// as a checkpoint, then moves one block's tail, not the reported one.
func (l latencies) blockQuantile(q float64) float64 {
	n := len(l) / blockSize
	if n < 2 {
		return l.quantile(q)
	}
	qs := make([]float64, n)
	for b := 0; b < n; b++ {
		end := (b + 1) * blockSize
		if b == n-1 {
			end = len(l)
		}
		qs[b] = l[b*blockSize : end].quantile(q)
	}
	return median(qs)
}

// blockRate returns the median completion rate, in operations per
// second, over blocks of n consecutive completions; done holds the
// completion times (UnixNano) and start the window's start. Like
// blockQuantile it keeps a transient stall, such as the host taking
// the CPU away for a while, out of the reported figure.
func blockRate(start int64, done []int64, n int) float64 {
	t := append([]int64(nil), done...)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	blocks := len(t) / n
	if blocks < 2 {
		if len(t) == 0 {
			return 0
		}
		return float64(len(t)) / (float64(t[len(t)-1]-start) / 1e9)
	}
	rates := make([]float64, blocks)
	prev := start
	for b := 0; b < blocks; b++ {
		end := (b+1)*n - 1
		if b == blocks-1 {
			end = len(t) - 1
		}
		count := end + 1 - b*n
		rates[b] = float64(count) / (float64(t[end]-prev) / 1e9)
		prev = t[end]
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest hashes a workload's generated inputs so two runs can show
// they saw the same tape, data and order stream.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...any) {
	var buf [8]byte
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			d.h.Write([]byte(v))
			d.h.Write([]byte{0})
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			d.h.Write(buf[:])
		case int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			d.h.Write(buf[:])
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			d.h.Write(buf[:])
		default:
			panic(fmt.Sprintf("digest: unsupported part %T", p))
		}
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
