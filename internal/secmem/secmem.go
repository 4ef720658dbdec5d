// Package secmem is the functional memory-protection layer: a protected
// memory image with real counter-mode encryption, real per-block and
// nested multi-granular MACs, and a real 8-ary counter integrity tree
// chained to on-chip roots. Unlike the timing layer (internal/core), which
// charges cycles, this layer moves actual bytes — tampering with stored
// ciphertext, MACs or counters, and replaying stale snapshots, is actually
// detected.
//
// Both layers share geometry and granularity encoding through
// internal/meta, so the property tests here validate the same addressing
// the timing model charges traffic for.
package secmem

import (
	"errors"
	"fmt"

	"unimem/internal/crypto"
	"unimem/internal/meta"
	"unimem/internal/probe"
)

// Integrity violation errors.
var (
	// ErrMAC is returned when a data block's MAC does not match.
	ErrMAC = errors.New("secmem: MAC mismatch (data tampered or spliced)")
	// ErrTree is returned when an integrity-tree node fails verification.
	ErrTree = errors.New("secmem: integrity-tree mismatch (counter tampered or replayed)")
)

type counterKey struct {
	level int
	entry meta.EntryIdx
}

// Memory is one protected memory image.
type Memory struct {
	geom  *meta.Geometry
	eng   *crypto.Engine
	table *meta.Table

	data     map[uint64][meta.BlockSize]byte // ciphertext by block address
	counters map[counterKey]uint64
	macs     map[uint64]crypto.MAC // data MACs by MAC slot address
	nodeMACs map[uint64]crypto.MAC // tree-node MACs by counter-line address
	roots    []uint64              // on-chip root counters (not attacker visible)

	// Bounded-counter state (see overflow.go). ctrBits == 0 means
	// unbounded minors (no overflow handling needed).
	ctrBits int
	majors  map[meta.ChunkIdx]uint64 // per-chunk major epoch, off-chip

	// prb, when non-nil, receives EvSwitchWindow events while a lazy
	// granularity switch has verified-and-captured a chunk but not yet
	// resealed it — the timing seam attack campaigns use to land
	// mid-switch mutations (see ApplyDetection).
	prb probe.Probe

	// Stats counts functional operations for tests and examples.
	Stats Stats

	// memo remembers the last input and result of every MAC computed
	// (see memo.go).
	memo memo

	// Scratch the data path stages through, so steady-state reads and
	// writes allocate nothing but the plaintext Read returns. Like its
	// engine, a Memory is single-owner.
	//
	// fines holds the per-64B MACs fineMACs and sealUnit compute; each
	// caller consumes them before the next call.
	fines [meta.BlocksPerChunk]crypto.MAC
	// plain is the on-chip staging buffer for one chunk's plaintext, by
	// block in chunk; held marks the blocks captureUnit found stored
	// ciphertext for. Writes, overflows and switches verify and decrypt
	// into it, then reseal exclusively from it (see captureUnit).
	plain [meta.BlocksPerChunk][meta.BlockSize]byte
	held  [meta.BlocksPerChunk]bool
}

// SetProbe attaches an event tap to the functional layer; only
// EvSwitchWindow is emitted. The nil default disables emission.
func (m *Memory) SetProbe(p probe.Probe) { m.prb = p }

// Stats counts functional-layer activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	Promotions uint64
	Demotions  uint64
	Verified   uint64 // tree-node verifications performed
	Overflows  uint64 // minor-counter saturations handled (overflow.go)

	// MAC primitives computed by the engine or reused from the memo. A
	// nested MAC over n fine MACs counts n steps.
	BlockMACs   MACCount
	NestedSteps MACCount
	NodeMACs    MACCount
}

// New creates a protected memory of regionBytes (multiple of 32KB),
// keyed by seed. All chunks start at the conventional fine (64B)
// granularity.
func New(regionBytes uint64, seed uint64) *Memory {
	g := meta.NewGeometry(regionBytes)
	return &Memory{
		geom:     g,
		eng:      crypto.NewEngine(seed),
		table:    meta.NewTable(),
		data:     map[uint64][meta.BlockSize]byte{},
		counters: map[counterKey]uint64{},
		macs:     map[uint64]crypto.MAC{},
		nodeMACs: map[uint64]crypto.MAC{},
		roots:    make([]uint64, g.RootEntries()),
		majors:   map[meta.ChunkIdx]uint64{},
		memo:     memo{pages: make([]*memoPage, g.Chunks()), nodes: map[uint64]*nodeRec{}},
	}
}

// Geometry exposes the metadata layout.
func (m *Memory) Geometry() *meta.Geometry { return m.geom }

// Table exposes the granularity table (read-mostly; use ApplyDetection to
// change granularity).
func (m *Memory) Table() *meta.Table { return m.table }

// GranOf returns the current protection granularity covering addr.
func (m *Memory) GranOf(addr uint64) meta.Gran {
	m.checkAddr(addr)
	return m.table.Current(meta.ChunkIndex(addr)).GranOfBlock(meta.BlockInChunk(addr))
}

func (m *Memory) checkAddr(addr uint64) {
	if addr >= m.geom.RegionBytes {
		panic(fmt.Sprintf("secmem: address %#x outside protected region", addr))
	}
}

// --- counter access -------------------------------------------------------

func (m *Memory) readCounter(level int, entry meta.EntryIdx) uint64 {
	if level >= m.geom.Levels() {
		return m.roots[entry]
	}
	return m.counters[counterKey{level, entry}]
}

// writeCounter stores a counter entry and reseals the chain above it:
// the parent counter is bumped to version the modified line, recursively
// to the on-chip root, and the line's node MAC is recomputed under the new
// parent value.
func (m *Memory) writeCounter(level int, entry meta.EntryIdx, val uint64) {
	if level >= m.geom.Levels() {
		m.roots[entry] = val
		return
	}
	m.counters[counterKey{level, entry}] = val
	line := entry / meta.Arity
	parentVal := m.readCounter(level+1, line) + 1
	m.writeCounter(level+1, line, parentVal)
	m.sealLine(level, line, parentVal)
}

// A line of level l holds the Arity entries that share one parent: its
// index is the parent's entry index at level l+1.

func (m *Memory) lineEntries(level int, line meta.EntryIdx) [meta.Arity]uint64 {
	var out [meta.Arity]uint64
	for i := range meta.EntryIdx(meta.Arity) {
		out[i] = m.readCounter(level, line*meta.Arity+i)
	}
	return out
}

func (m *Memory) lineAddr(level int, line meta.EntryIdx) uint64 {
	// CounterLineAddr expects a block index: take the first block the
	// line's first entry covers.
	return m.geom.CounterLineAddr(level, (line * meta.Arity).FirstBlock(level))
}

func (m *Memory) sealLine(level int, line meta.EntryIdx, parentVal uint64) {
	addr := m.lineAddr(level, line)
	ents := m.lineEntries(level, line)
	m.nodeMACs[addr] = m.nodeMAC(addr, parentVal, &ents)
}

// verifyChain checks the tree from the counter line at startLevel covering
// blockIdx up to the on-chip root (paper Fig. 2 / section 2.2; the
// multi-granular tree starts at the promoted level, Fig. 10).
func (m *Memory) verifyChain(startLevel int, blockIdx meta.BlockIdx) error {
	for level := startLevel; level < m.geom.Levels(); level++ {
		entry := m.geom.CounterEntryIndex(level, blockIdx)
		line := entry / meta.Arity
		parentVal := m.readCounter(level+1, line)
		addr := m.lineAddr(level, line)
		stored, ok := m.nodeMACs[addr]
		if !ok {
			// Never-written line: valid only in its pristine state.
			if parentVal == 0 && m.lineZero(level, line) {
				continue
			}
			return fmt.Errorf("%w: missing node MAC at level %d", ErrTree, level)
		}
		m.Stats.Verified++
		ents := m.lineEntries(level, line)
		want := m.nodeMAC(addr, parentVal, &ents)
		if !crypto.Equal(stored, want) {
			return fmt.Errorf("%w: level %d line %#x", ErrTree, level, addr)
		}
	}
	return nil
}

func (m *Memory) lineZero(level int, line meta.EntryIdx) bool {
	for _, v := range m.lineEntries(level, line) {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- unit helpers ---------------------------------------------------------

// unitOf resolves the protection unit covering addr under the current
// granularity encoding.
func (m *Memory) unitOf(addr uint64) (base uint64, gran meta.Gran) {
	sp := m.table.Current(meta.ChunkIndex(addr))
	u := sp.UnitOf(meta.BlockInChunk(addr))
	return meta.ChunkBase(addr) + u.Block.Offset(), u.Gran
}

// unitCounter returns the version counter of the unit (at the promoted
// tree level for coarse units, paper Fig. 10).
func (m *Memory) unitCounter(base uint64, gran meta.Gran) uint64 {
	return m.readCounter(gran.Level(), m.geom.CounterEntryIndex(gran.Level(), meta.BlockIndex(base)))
}

// fineMACs computes the per-64B MACs of a unit's stored ciphertext under
// counter ctr into m.fines and returns them; never-written blocks MAC as
// zero ciphertext.
func (m *Memory) fineMACs(base uint64, gran meta.Gran, ctr uint64) []crypto.MAC {
	out := m.fines[:gran.Blocks()]
	for i := range out {
		blockAddr := base + uint64(i*meta.BlockSize)
		ct := m.data[blockAddr]
		out[i] = m.blockMAC(blockAddr, ctr, &ct)
	}
	return out
}

// storedMAC returns the MAC slot address for a unit.
func (m *Memory) unitMACAddr(base uint64, sp meta.StreamPart) uint64 {
	a, _ := m.geom.MACAddrFor(base, sp)
	return a
}

// unitMAC returns the MAC the unit at base with these fine MACs stores:
// the fine MAC itself at 64B, the nested MAC (Eq. 5) of coarse units.
func (m *Memory) unitMAC(base uint64, gran meta.Gran, fines []crypto.MAC) crypto.MAC {
	if gran == meta.Gran64 {
		return fines[0]
	}
	return m.nestedMAC(base, gran, fines)
}

// captureUnit verifies one unit — the chain for freshness, the unit MAC
// for content — and only then decrypts its stored blocks into the staging
// buffer, marking them held. It returns the unit's minor counter. Every
// path that reseals existing data captures through here first and reseals
// exclusively from the staged plaintext: resealing from off-chip
// ciphertext, or without verification, would launder off-chip tampering
// into fresh MACs (the TOCTOU hole real engines close by verifying into
// on-chip buffers before any re-encryption).
func (m *Memory) captureUnit(base uint64, gran meta.Gran, sp meta.StreamPart) (uint64, error) {
	if err := m.verifyChain(gran.Level(), meta.BlockIndex(base)); err != nil {
		return 0, err
	}
	minor := m.unitCounter(base, gran)
	eff := m.effectiveCtr(meta.ChunkIndex(base), minor)
	if err := m.verifyUnit(base, gran, sp, minor, eff); err != nil {
		return 0, err
	}
	first := meta.BlockInChunk(base)
	for i := 0; i < gran.Blocks(); i++ {
		a, b := base+uint64(i*meta.BlockSize), first+meta.ChunkBlock(i)
		ct, ok := m.data[a]
		m.held[b] = ok
		if ok {
			m.eng.OpenInto(&m.plain[b], a, eff, ct[:])
		}
	}
	return minor, nil
}

// sealUnit re-encrypts a unit's held blocks from the staging buffer under
// eff, writes the ciphertext back and stores the unit's MAC. Blocks not
// held keep zero-ciphertext MAC semantics (matching fineMACs) without
// being materialized.
func (m *Memory) sealUnit(base uint64, gran meta.Gran, eff uint64) {
	first := meta.BlockInChunk(base)
	fines := m.fines[:gran.Blocks()]
	for i := range fines {
		a, b := base+uint64(i*meta.BlockSize), first+meta.ChunkBlock(i)
		var ct [meta.BlockSize]byte
		if m.held[b] {
			m.eng.SealInto(&ct, a, eff, m.plain[b][:])
			m.data[a] = ct
		}
		fines[i] = m.blockMAC(a, eff, &ct)
	}
	sp := m.table.Current(meta.ChunkIndex(base))
	m.macs[m.unitMACAddr(base, sp)] = m.unitMAC(base, gran, fines)
}

// verifyUnit authenticates the unit's stored ciphertext against its MAC
// under effective counter eff. A pristine unit (minor counter zero, no MAC
// slot, no stored blocks) passes — fresh memory reads as zero without a
// MAC. Every path that decrypts stored ciphertext must verify through here
// first: decrypt-then-reseal without verification would launder off-chip
// tampering into fresh MACs (a TOCTOU hole real engines close by verifying
// into on-chip buffers before any re-encryption).
func (m *Memory) verifyUnit(base uint64, gran meta.Gran, sp meta.StreamPart, minor, eff uint64) error {
	stored, ok := m.macs[m.unitMACAddr(base, sp)]
	if !ok {
		if minor == 0 && m.unitUntouched(base, gran) {
			return nil
		}
		return fmt.Errorf("%w: missing MAC for unit %#x", ErrMAC, base)
	}
	if !crypto.Equal(stored, m.unitMAC(base, gran, m.fineMACs(base, gran, eff))) {
		return fmt.Errorf("%w: unit %#x (%v)", ErrMAC, base, gran)
	}
	return nil
}

// --- public data path -----------------------------------------------------

// Write stores one 64B plaintext block at the block-aligned address addr.
// For blocks inside a coarse-grained unit the whole unit is re-encrypted
// under a fresh shared counter (the bulk-write behaviour coarse units are
// chosen for).
func (m *Memory) Write(addr uint64, plaintext []byte) error {
	m.checkAddr(addr)
	if addr%meta.BlockSize != 0 || len(plaintext) != meta.BlockSize {
		panic("secmem: Write requires one aligned 64B block")
	}
	m.Stats.Writes++
	chunk := meta.ChunkIndex(addr)
	base, gran := m.unitOf(addr)
	level := gran.Level()
	entry := m.geom.CounterEntryIndex(level, meta.BlockIndex(base))

	// Verify, then capture the unit's current plaintext: sibling blocks are
	// about to be resealed, and resealing unverified data would turn a
	// write into a tamper-laundering primitive.
	oldCtr, err := m.captureUnit(base, gran, m.table.Current(chunk))
	if err != nil {
		return err
	}
	// Minor-counter saturation: bump the chunk's major epoch (re-encrypts
	// the chunk under the new epoch) before taking the write. The bump
	// verifies and stages the chunk again, leaving this unit's plaintext as
	// captured above.
	if oldCtr+1 >= m.minorLimit() {
		if err := m.bumpMajor(chunk); err != nil {
			return err
		}
	}

	// Stage the new unit contents: never-written members as zeros, the
	// written block as given. Every member is then materialized.
	u := meta.Unit{Gran: gran, Block: meta.BlockInChunk(base)}
	for i := u.Block; i < u.End(); i++ {
		if !m.held[i] {
			m.plain[i] = [meta.BlockSize]byte{}
			m.held[i] = true
		}
	}
	copy(m.plain[meta.BlockInChunk(addr)][:], plaintext)

	newCtr := oldCtr + 1
	m.writeCounter(level, entry, newCtr)
	m.sealUnit(base, gran, m.effectiveCtr(chunk, newCtr))
	return nil
}

// Read fetches and verifies one 64B block. For coarse units the whole unit
// is authenticated (the nested MAC covers all member blocks). Never-written
// units read as zeros.
func (m *Memory) Read(addr uint64) ([]byte, error) {
	m.checkAddr(addr)
	if addr%meta.BlockSize != 0 {
		panic("secmem: Read requires a 64B-aligned address")
	}
	m.Stats.Reads++
	base, gran := m.unitOf(addr)
	level := gran.Level()

	if err := m.verifyChain(level, meta.BlockIndex(base)); err != nil {
		return nil, err
	}
	minor := m.unitCounter(base, gran)
	ctr := m.effectiveCtr(meta.ChunkIndex(base), minor)
	sp := m.table.Current(meta.ChunkIndex(base))
	if err := m.verifyUnit(base, gran, sp, minor, ctr); err != nil {
		return nil, err
	}
	// A verified unit with no stored ciphertext for this block is pristine
	// (or a zero-ciphertext member the MAC covers) and reads as zero.
	out := new([meta.BlockSize]byte)
	if ct, ok := m.data[addr]; ok {
		m.eng.OpenInto(out, addr, ctr, ct[:])
	}
	return out[:], nil
}

func (m *Memory) unitUntouched(base uint64, gran meta.Gran) bool {
	for i := 0; i < gran.Blocks(); i++ {
		if _, ok := m.data[base+uint64(i*meta.BlockSize)]; ok {
			return false
		}
	}
	return true
}
