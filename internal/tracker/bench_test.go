package tracker

import (
	"testing"

	"unimem/internal/meta"
	"unimem/internal/sim"
)

// BenchmarkTrackerAccessRange times one AccessRange on the paper's
// 12-entry tracker over a request mix like the sweep's devices issue: 64B
// CPU misses scattered over 64 chunks, 4KB GPU bursts and 32KB NPU tiles,
// 1ns apart so lifetime sweeps and LRU evictions both occur.
func BenchmarkTrackerAccessRange(b *testing.B) {
	type req struct {
		addr uint64
		size int
	}
	reqs := make([]req, 3*1024)
	for i := range reqs {
		x := uint64(i) * 0x9e3779b97f4a7c15
		chunk := x >> 58 // 64 chunks
		switch i % 3 {
		case 0:
			reqs[i] = req{chunk*meta.ChunkSize + (x>>20)%meta.BlocksPerChunk*meta.BlockSize, meta.BlockSize}
		case 1:
			reqs[i] = req{chunk*meta.ChunkSize + (x>>20)%8*4096, 4096}
		default:
			reqs[i] = req{chunk * meta.ChunkSize, meta.ChunkSize}
		}
	}
	tr := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		tr.AccessRange(r.addr, r.size, sim.Time(i)*1000)
	}
}
