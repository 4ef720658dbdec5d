// Package tree implements the timing-side integrity-tree walker: given a
// block and the tree level its version counter lives at (level 0 for fine
// blocks, higher for promoted units — paper Fig. 10), it decides which
// counter lines must come from memory and which are already trusted
// on-chip, through the shared security-metadata cache.
//
// It also implements the two subtree optimizations the paper composes with
// (section 2.4, Fig. 3): Bonsai-Merkle-Forest-style caching of hot subtree
// roots in on-chip registers, and PENGLAI-style pruning of never-written
// (unused) regions.
package tree

import (
	"unimem/internal/cache"
	"unimem/internal/check"
	"unimem/internal/meta"
)

// Config describes one walker.
type Config struct {
	// Subtree enables BMF-style hot subtree-root caching.
	Subtree bool
	// SubtreeLevel is the tree level whose nodes the root registers hold;
	// level 3 nodes each cover one 32KB chunk.
	SubtreeLevel int
	// SubtreeEntries is the number of on-chip subtree-root registers.
	SubtreeEntries int
	// PruneUnused skips verification for chunks never written since boot
	// (PENGLAI mountable trees).
	PruneUnused bool
}

// DefaultSubtree returns the subtree configuration used by the BMF&Unused
// schemes: 64 root registers at the 32KB level.
func DefaultSubtree() Config {
	return Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 64, PruneUnused: true}
}

// Walk is the outcome of one traversal.
type Walk struct {
	// Fetches lists counter-line addresses that must be read from memory,
	// in ascending level order. Read walks serialize them (each level
	// authenticates the one below); write walks only consume bandwidth.
	Fetches []uint64
	// Writebacks counts dirty lines evicted from the metadata cache by
	// this walk's fills; the caller charges them as memory writes.
	Writebacks int
	// Levels is the number of tree levels the walk touched.
	Levels int
	// Pruned reports the walk was skipped entirely (unused region).
	Pruned bool
	// SubtreeHit reports the walk ended at an on-chip subtree root.
	SubtreeHit bool
}

// Walker traverses the counter tree through a metadata cache.
type Walker struct {
	geom *meta.Geometry
	meta *cache.Cache
	cfg  Config

	rootCache *cache.Cache           // subtree root registers, modelled as 1-way-per-entry LRU
	touched   map[meta.ChunkIdx]bool // chunks written since boot (for PruneUnused)
	buf       []uint64               // reused Fetches backing store (see Read/Write)
}

// New builds a walker over a geometry and a shared metadata cache.
func New(geom *meta.Geometry, metaCache *cache.Cache, cfg Config) *Walker {
	w := &Walker{geom: geom, meta: metaCache, cfg: cfg, touched: map[meta.ChunkIdx]bool{}}
	if cfg.Subtree {
		if cfg.SubtreeEntries <= 0 {
			cfg.SubtreeEntries = 64
			w.cfg.SubtreeEntries = 64
		}
		// Fully associative register file keyed by subtree id.
		w.rootCache = cache.New(cache.Config{
			SizeBytes: cfg.SubtreeEntries * 64,
			LineBytes: 64,
			Ways:      cfg.SubtreeEntries,
		})
	}
	return w
}

func (w *Walker) subtreeID(blockIdx meta.BlockIdx) uint64 {
	//mutate:ignore unit-swap the root cache has a single set, so any injective per-subtree multiplier yields identical hit/miss behavior; the scale constant is cosmetic
	return uint64(blockIdx>>(3*uint(w.cfg.SubtreeLevel))) * meta.BlockSize // one pseudo-line per subtree
}

// MarkTouched records that the chunk holding blockIdx now has live tree
// state (called on writes).
func (w *Walker) MarkTouched(blockIdx meta.BlockIdx) {
	w.touched[blockIdx.Chunk()] = true
}

// Touched reports whether the chunk holding blockIdx has been written.
func (w *Walker) Touched(blockIdx meta.BlockIdx) bool {
	return w.touched[blockIdx.Chunk()]
}

// Read walks the tree for a read of a unit whose counter lives at
// startLevel, ascending until a trusted point: a metadata-cache hit, an
// on-chip subtree root, or the tree root.
//
// The returned Walk's Fetches slice is backed by walker-owned scratch and
// is valid only until the walker's next Read or Write; callers consume it
// before walking again (the engine does), keeping the hot path free of
// per-walk allocations.
func (w *Walker) Read(blockIdx meta.BlockIdx, startLevel int) Walk {
	walk := w.read(blockIdx, startLevel)
	w.buf = walk.Fetches
	return walk
}

func (w *Walker) read(blockIdx meta.BlockIdx, startLevel int) Walk {
	walk := Walk{Fetches: w.buf[:0]}
	if w.cfg.PruneUnused && !w.Touched(blockIdx) {
		walk.Pruned = true
		return walk
	}
	for level := startLevel; level < w.geom.Levels(); level++ {
		if w.subtreeStop(blockIdx, level, &walk) {
			return walk
		}
		walk.Levels++
		addr := w.geom.CounterLineAddr(level, blockIdx)
		hit, wb := w.meta.Access(addr, false)
		if wb {
			walk.Writebacks++
		}
		if hit {
			return walk // cached node is trusted; verification stops
		}
		if check.Enabled {
			w.assertFetch(&walk, addr)
		}
		walk.Fetches = append(walk.Fetches, addr)
	}
	return walk
}

// assertFetch checks (under -tags invariants) that a fetched counter line
// lies inside the counter region and strictly above the walk's previous
// fetch: the walk ascends level by level, and each stored level's line
// array is laid out above the one below it (Eq. 4), so a non-monotonic
// fetch sequence means the address computation is wrong.
func (w *Walker) assertFetch(walk *Walk, addr uint64) {
	check.Assertf(addr >= w.geom.CounterBase && addr < w.geom.GTBase,
		"counter fetch %#x outside counter region [%#x, %#x)", addr, w.geom.CounterBase, w.geom.GTBase)
	if n := len(walk.Fetches); n > 0 {
		//mutate:ignore all fetch addresses are 64-aligned lines, so consecutive fetches differ by >= 64 and nudging or weakening this comparison cannot change it on any walk a correct or buggy caller produces
		check.Assertf(addr > walk.Fetches[n-1],
			"tree walk not ascending: %#x fetched after %#x", addr, walk.Fetches[n-1])
	}
}

// Write walks the tree for a dirty-eviction write: every level from the
// unit's counter up to the root (or a trusted on-chip subtree root) is
// updated (paper Fig. 14). Cached levels update in place; missing levels
// are fetched (read traffic) and dirtied. Fetches aliases walker scratch
// exactly as for Read.
func (w *Walker) Write(blockIdx meta.BlockIdx, startLevel int) Walk {
	walk := w.write(blockIdx, startLevel)
	w.buf = walk.Fetches
	return walk
}

func (w *Walker) write(blockIdx meta.BlockIdx, startLevel int) Walk {
	walk := Walk{Fetches: w.buf[:0]}
	w.MarkTouched(blockIdx)
	for level := startLevel; level < w.geom.Levels(); level++ {
		if w.subtreeStop(blockIdx, level, &walk) {
			return walk
		}
		walk.Levels++
		addr := w.geom.CounterLineAddr(level, blockIdx)
		hit, wb := w.meta.Access(addr, true)
		if wb {
			walk.Writebacks++
		}
		if !hit {
			if check.Enabled {
				w.assertFetch(&walk, addr)
			}
			walk.Fetches = append(walk.Fetches, addr)
		}
	}
	return walk
}

// subtreeStop consults the root registers when the walk reaches the
// subtree level; a hit terminates the walk at an on-chip trusted root, a
// miss installs the root (hotness-by-LRU) and lets the walk continue.
func (w *Walker) subtreeStop(blockIdx meta.BlockIdx, level int, walk *Walk) bool {
	if !w.cfg.Subtree || level != w.cfg.SubtreeLevel {
		return false
	}
	hit, _ := w.rootCache.Access(w.subtreeID(blockIdx), false)
	if hit {
		walk.SubtreeHit = true
	}
	return hit
}

// SubtreeStats exposes root-register hit statistics (nil when disabled).
func (w *Walker) SubtreeStats() *cache.Stats {
	if w.rootCache == nil {
		return nil
	}
	return &w.rootCache.Stats
}
