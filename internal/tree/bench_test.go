package tree

import (
	"testing"

	"unimem/internal/cache"
	"unimem/internal/meta"
)

// BenchmarkWalk times one fine-grained (level 0) tree walk over the sweep's
// 4GB region through the engine's 8KB metadata cache, at blocks spread
// across the region so most levels miss, as the sweep's GPU/NPU streams
// make them.
func BenchmarkWalk(b *testing.B) {
	geom := meta.NewGeometry(4 << 30)
	// A fixed multiplicative walk over the block space: deterministic and
	// cache-hostile.
	blocks := make([]meta.BlockIdx, 4096)
	for i := range blocks {
		blocks[i] = meta.BlockIdx(uint64(i)*0x9e3779b97f4a7c15>>6) % geom.Blocks()
	}
	for _, write := range []bool{false, true} {
		name := "read"
		if write {
			name = "write"
		}
		b.Run(name, func(b *testing.B) {
			w := New(geom, cache.New(cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 8}), Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk := blocks[i%len(blocks)]
				if write {
					w.Write(blk, 0)
				} else {
					w.Read(blk, 0)
				}
			}
		})
	}
}
