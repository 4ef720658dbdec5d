package cache

import "testing"

// metaGeometry is the protection engine's security-metadata cache: 8KB of
// 64B lines, 8-way (internal/core defaults).
var metaGeometry = Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 8}

// BenchmarkCacheAccess times one Access at the metadata cache's geometry:
// a hit on a resident line, and a store miss whose fill evicts a dirty
// line.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := New(metaGeometry)
		const resident = 64 // half the cache's 128 lines
		for i := uint64(0); i < resident; i++ {
			c.Access(i*64, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hit, _ := c.Access(uint64(i%resident)*64, false); !hit {
				b.Fatal("resident line missed")
			}
		}
	})
	b.Run("miss-dirty-evict", func(b *testing.B) {
		c := New(metaGeometry)
		lines := uint64(metaGeometry.SizeBytes / metaGeometry.LineBytes)
		for i := uint64(0); i < lines; i++ {
			c.Access(i*64, true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every address is new, and every resident line is dirty.
			if hit, wb := c.Access((lines+uint64(i))*64, true); hit || !wb {
				b.Fatal("want a miss that writes back a dirty line")
			}
		}
	})
}
