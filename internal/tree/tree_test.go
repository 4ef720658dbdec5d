package tree

import (
	"testing"

	"unimem/internal/cache"
	"unimem/internal/meta"
)

func newWalker(cfg Config) (*Walker, *cache.Cache) {
	geom := meta.NewGeometry(1 << 20) // 4 stored levels
	mc := cache.New(cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 8})
	return New(geom, mc, cfg), mc
}

func TestColdReadWalksAllLevels(t *testing.T) {
	w, _ := newWalker(Config{})
	walk := w.Read(0, 0)
	if walk.Levels != 4 || len(walk.Fetches) != 4 {
		t.Fatalf("walk = %+v, want 4 levels / 4 fetches", walk)
	}
	if walk.Pruned || walk.SubtreeHit {
		t.Fatalf("unexpected flags: %+v", walk)
	}
}

func TestWarmReadStopsAtCacheHit(t *testing.T) {
	w, _ := newWalker(Config{})
	w.Read(0, 0)
	walk := w.Read(0, 0)
	if walk.Levels != 1 || len(walk.Fetches) != 0 {
		t.Fatalf("warm walk = %+v, want 1 level / 0 fetches", walk)
	}
}

func TestPromotedStartLevelShortensWalk(t *testing.T) {
	w, _ := newWalker(Config{})
	walk := w.Read(0, 3) // 32KB-promoted unit
	if walk.Levels != 1 || len(walk.Fetches) != 1 {
		t.Fatalf("promoted walk = %+v, want 1 level", walk)
	}
}

func TestSiblingSharesUpperLevels(t *testing.T) {
	w, _ := newWalker(Config{})
	w.Read(0, 0)
	// Block 8 is in the next leaf line but shares all upper levels.
	walk := w.Read(8, 0)
	if walk.Levels != 2 || len(walk.Fetches) != 1 {
		t.Fatalf("sibling walk = %+v, want 2 levels / 1 fetch", walk)
	}
}

func TestWriteWalksToRoot(t *testing.T) {
	w, _ := newWalker(Config{})
	walk := w.Write(0, 0)
	if walk.Levels != 4 || len(walk.Fetches) != 4 {
		t.Fatalf("cold write walk = %+v", walk)
	}
	// Second write: everything cached, still touches all levels but no
	// fetches (Fig. 14: writes extend to root).
	walk = w.Write(0, 0)
	if walk.Levels != 4 || len(walk.Fetches) != 0 {
		t.Fatalf("warm write walk = %+v, want 4 levels / 0 fetches", walk)
	}
}

func TestPruneUnusedSkipsReads(t *testing.T) {
	w, _ := newWalker(Config{PruneUnused: true})
	walk := w.Read(0, 0)
	if !walk.Pruned || walk.Levels != 0 || len(walk.Fetches) != 0 {
		t.Fatalf("unused read = %+v, want pruned", walk)
	}
	// A write instantiates the chunk's tree...
	w.Write(0, 0)
	walk = w.Read(0, 0)
	if walk.Pruned {
		t.Fatal("read after write still pruned")
	}
	// ...but other chunks stay pruned.
	walk = w.Read(meta.BlocksPerChunk*3, 0)
	if !walk.Pruned {
		t.Fatal("untouched chunk not pruned")
	}
}

func TestSubtreeRootHitStopsWalk(t *testing.T) {
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 4})
	w.Read(0, 0) // installs the subtree root register for chunk 0
	mc.Reset()   // force metadata misses so only the register can stop us
	walk := w.Read(1, 0)
	if !walk.SubtreeHit {
		t.Fatalf("walk = %+v, want subtree hit", walk)
	}
	if walk.Levels != 3 { // levels 0,1,2 walked; stopped at level 3
		t.Fatalf("levels = %d, want 3", walk.Levels)
	}
}

func TestSubtreeRootLRUCapacity(t *testing.T) {
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 2})
	// Touch chunks 0,1,2: chunk 0's register is evicted.
	for c := meta.ChunkIdx(0); c < 3; c++ {
		w.Read(c.Block(0), 0)
	}
	mc.Reset()
	walk := w.Read(0, 0)
	if walk.SubtreeHit {
		t.Fatal("evicted subtree root still hit")
	}
	if walk2 := w.Read(2*meta.BlocksPerChunk, 0); !walk2.SubtreeHit {
		t.Fatal("hot subtree root missing")
	}
}

func TestSubtreeDisabledForPromotedAboveRootLevel(t *testing.T) {
	// A 32KB-promoted walk starts at level 3 == subtree level: a cached
	// root satisfies it immediately.
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 4})
	w.Read(0, 3)
	mc.Reset()
	walk := w.Read(0, 3)
	if !walk.SubtreeHit || walk.Levels != 0 {
		t.Fatalf("walk = %+v, want immediate subtree hit", walk)
	}
}

func TestWritebackPropagation(t *testing.T) {
	// A tiny metadata cache forces dirty evictions.
	geom := meta.NewGeometry(1 << 20)
	mc := cache.New(cache.Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	w := New(geom, mc, Config{})
	w.Write(0, 0)
	total := 0
	for blk := meta.BlockIdx(0); blk < 64*8; blk += 8 {
		walk := w.Write(blk, 0)
		total += walk.Writebacks
	}
	if total == 0 {
		t.Fatal("no writebacks despite thrashing a dirty 2-line cache")
	}
}

func TestSubtreeStats(t *testing.T) {
	w, _ := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 4})
	if w.SubtreeStats() == nil {
		t.Fatal("subtree stats missing")
	}
	w2, _ := newWalker(Config{})
	if w2.SubtreeStats() != nil {
		t.Fatal("subtree stats present when disabled")
	}
}

func TestDefaultSubtreeConfig(t *testing.T) {
	cfg := DefaultSubtree()
	if !cfg.Subtree || !cfg.PruneUnused || cfg.SubtreeLevel != 3 || cfg.SubtreeEntries != 64 {
		t.Fatalf("default subtree config = %+v", cfg)
	}
}

// TestSubtreeZeroEntriesDefaults: a subtree configuration without a
// register count gets the default 64 registers (the boundary of New's
// <= 0 guard), not an unusable zero-entry register file: all 32 chunks of
// the 1MB region keep their subtree roots on chip.
func TestSubtreeZeroEntriesDefaults(t *testing.T) {
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3})
	for c := meta.ChunkIdx(0); c < 32; c++ {
		w.Read(c.Block(0), 0)
	}
	mc.Reset()
	if walk := w.Read(0, 0); !walk.SubtreeHit {
		t.Fatalf("walk = %+v: the first of 32 subtree roots was evicted", walk)
	}
}
