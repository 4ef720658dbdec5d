package core

import (
	"testing"

	"unimem/internal/meta"
)

// TestFineMACLinesAnchoredAtUnitBase pins the read-only scale-down MAC
// fetch (section 4.4) to the unit that actually switched. A 4KB unit spans
// 64 blocks = 8 MAC lines; a demotion committed from its last partition
// (block 504 of a unit based at 448) must fetch the lines holding fine MACs
// for blocks 448..511 — a regression once fetched lines for blocks
// 504, 0, 8, ..., 48 by anchoring at the triggering partition and wrapping
// modulo the chunk.
func TestFineMACLinesAnchoredAtUnitBase(t *testing.T) {
	r := newRig(Ours, Options{})
	geom := r.en.Geometry()

	const chunk = 3
	for _, tc := range []struct {
		name string
		b    meta.ChunkBlock // triggering partition's first block within the chunk
		from meta.Gran
	}{
		{"gran4k-last-partition", 7*64 + 56, meta.Gran4K},
		{"gran4k-mid-partition", 2*64 + 16, meta.Gran4K},
		{"gran32k-last-partition", 504, meta.Gran32K},
		{"gran512-mid-chunk", 264, meta.Gran512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := int(tc.b.Align(tc.from))
			wantLines := tc.from.Blocks() / meta.MACsPerLine
			if wantLines < 1 {
				wantLines = 1
			}
			got := r.en.fineMACLines(chunk, tc.b, tc.from)
			if len(got) != wantLines {
				t.Fatalf("got %d lines, want %d", len(got), wantLines)
			}
			for i, a := range got {
				want := geom.MACLineAddr(chunk, base+i*meta.MACsPerLine)
				if a != want {
					t.Errorf("line %d: got %#x, want %#x (unit base block %d)", i, a, want, base)
				}
			}
		})
	}
}
