package workload

import (
	"unimem/internal/meta"
	"unimem/internal/sim"
	"unimem/internal/tracker"
)

// ChunkMix is the Fig. 4 measurement: the fraction of memory requests
// belonging to each stream-chunk class. A request counts toward the class
// its 512B partition receives in the tracking window the request belongs
// to — the paper's definition: a chunk (or partition) is "stream" when all
// of its blocks are touched within one short period (16K cycles).
type ChunkMix struct {
	Frac [4]float64 // indexed by meta.Gran
	// Requests is the number of classified requests.
	Requests int
}

// Coarse returns the 4KB+32KB fraction.
func (m ChunkMix) Coarse() float64 { return m.Frac[meta.Gran4K] + m.Frac[meta.Gran32K] }

// pendingReq remembers a request awaiting its window's classification.
type pendingReq struct {
	part  meta.PartIdx // first partition touched
	count int          // weight (one per generator request)
}

// AnalyzeStreamChunks replays a trace through an idealized access tracker
// (unbounded entries, the paper's 16K-cycle window) and classifies every
// request by the stream-chunk granularity its window detects.
func AnalyzeStreamChunks(g Generator, windowPs sim.Time) ChunkMix {
	if windowPs <= 0 {
		windowPs = 16384 * sim.PsPerGPUCycle
	}
	// Idealized tracker: one entry per chunk, no capacity pressure.
	trk := tracker.New(tracker.Config{Entries: 65536, LifetimePs: windowPs})

	pending := map[meta.ChunkIdx][]pendingReq{} // by chunk
	var counts [4]int
	classify := func(dets []tracker.Detection) {
		for _, d := range dets {
			for _, p := range pending[d.Chunk] {
				counts[d.Stream.GranOf(p.part)] += p.count
			}
			delete(pending, d.Chunk)
		}
	}

	var now sim.Time
	total := 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		total++
		now += r.GapPs
		chunk := meta.ChunkIndex(r.Addr)
		pending[chunk] = append(pending[chunk], pendingReq{part: meta.PartIndex(r.Addr), count: 1})
		classify(trk.AccessRange(r.Addr, r.Size, now))
	}
	classify(trk.Flush())

	var mix ChunkMix
	mix.Requests = total
	if total > 0 {
		for i := range counts {
			mix.Frac[i] = float64(counts[i]) / float64(total)
		}
	}
	return mix
}
