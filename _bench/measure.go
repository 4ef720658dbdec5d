package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// mix is splitmix64: it turns a benchmark seed into well-spread input
// seeds, so neighbouring --seed values give unrelated inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// rng is a xorshift64* generator for the benchmark's own input choices.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: mix(seed) | 1} }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs returns the heap objects allocated by the process so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(v); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// goid returns the calling goroutine's id. The sweep uses it to pair the
// start and end of each scenario-run, which SweepParallel reports from the
// worker goroutine executing it but without naming the run at the end.
func goid() uint64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64) // the runtime always prints a decimal id
	return id
}

// window is one slice of a timed phase. Windows end on cycle (or sweep)
// boundaries, so each holds the workload's full mix.
type window struct {
	ops  int
	wall time.Duration
}

// medianRate returns the median over windows of ops per second. The median
// keeps a transient slowdown of a shared host from moving the result.
func medianRate(ws []window) float64 {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = float64(w.ops) / w.wall.Seconds()
	}
	return median(rates)
}

// histPerOctave is the number of latency buckets per doubling; each bucket
// is 0.54% wide.
const histPerOctave = 128

// latHist is a histogram of op latencies in log-spaced buckets from 1 ns
// up. Its memory does not grow with the op count, and percentiles are taken
// over every op of a timed phase: the latencies are multimodal (64B, 4KB
// and 32KB units; short and long scenario-runs), and a percentile near the
// edge of a mode moves far less when it is pooled over a whole run than
// when it is taken per window.
type latHist struct {
	counts []uint64
	n      uint64
}

func (h *latHist) add(us float64) {
	k := int(math.Log2(max(us*1e3, 1)) * histPerOctave)
	if k >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, k+1-len(h.counts))...)
	}
	h.counts[k]++
	h.n++
}

// quantile returns the q-quantile in microseconds, interpolated within its
// bucket, or 0 for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	rank, cum := q*float64(h.n), 0.0
	for k, c := range h.counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo, hi := math.Exp2(float64(k)/histPerOctave), math.Exp2(float64(k+1)/histPerOctave)
		return (lo + (rank-cum)/float64(c)*(hi-lo)) / 1e3
	}
	return 0
}

// latencies are a timed phase's op latencies, all together and split into
// reads and writes (the split stays empty in the sweep).
type latencies struct{ all, read, write latHist }
