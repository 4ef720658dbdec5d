package sim

import "testing"

// sweepQueueDepth is about the mean number of queued events a sweep
// scenario's event loop pops from (94.5 over the Ours scheme on four
// sampled scenarios at scale 0.08).
const sweepQueueDepth = 96

// BenchmarkEventHeap times one steady-state pop and push at a sweep-like
// queue depth: each popped event is rescheduled a pseudo-random delay
// later, so the queue keeps its depth and the heap keeps reordering.
func BenchmarkEventHeap(b *testing.B) {
	var h eventHeap
	x := uint64(0x9e3779b97f4a7c15)
	delay := func() Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return Time(x % 4096)
	}
	var seq uint64
	for ; seq < sweepQueueDepth; seq++ {
		h.push(event{at: delay(), seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		seq++
		h.push(event{at: ev.at + delay(), seq: seq})
	}
}
