package secmem

import (
	"slices"

	"unimem/internal/crypto"
	"unimem/internal/meta"
)

// Exact-input MAC memo. BlockMAC, NestedMAC and NodeMAC are pure
// functions of their inputs, so a memory that remembers the complete
// input of the last call per block, unit and tree line can return the
// remembered result whenever the new input is byte-for-byte the same,
// and that result is exactly what recomputation would return. Nothing
// invalidates a record: a tamper, splice, replay or load that changes any
// input byte makes the next lookup miss and recompute. Hits are never
// decided by a hash of the input.
//
// The memo is on-chip simulator state. It is not part of Snapshot,
// Replay, Save or Load, and a loaded Memory starts with an empty one.
// Every check still runs: the memo only replaces recomputing a MAC whose
// inputs are unchanged, never the comparison against the stored MAC.

// MACCount counts one MAC primitive's results: computed by the engine, or
// reused from the memo because every input matched.
type MACCount struct {
	Computed uint64
	Reused   uint64
}

// blockRec holds one block's last BlockMAC input and result.
type blockRec struct {
	addr, ctr uint64
	ct        [meta.BlockSize]byte
	mac       crypto.MAC
	ok        bool
}

// nestedRec holds one coarse unit's last NestedMAC result; the fine MACs
// it was computed over are in the page's fines.
type nestedRec struct {
	base uint64
	n    int
	mac  crypto.MAC
	ok   bool
}

// nodeRec holds one counter line's last NodeMAC input and result.
type nodeRec struct {
	addr, parent uint64
	entries      [meta.Arity]uint64
	mac          crypto.MAC
}

// memoPage holds the block and nested records of one chunk. It is
// allocated when the chunk is first MACed and reused in place after that.
type memoPage struct {
	blocks [meta.BlocksPerChunk]blockRec
	// fines[g-1] holds the fine-MAC inputs of the nested records of
	// granularity g (512B, 4KB, 32KB), by block in chunk.
	fines  [meta.Gran32K][meta.BlocksPerChunk]crypto.MAC
	nested [nestedSlots]nestedRec
}

// nestedSlots is the number of coarse units a chunk can hold at once or
// in turn: 64 of 512B, 8 of 4KB and 1 of 32KB.
const nestedSlots = 1 + 8 + 64

// nestedSlot numbers a chunk's coarse units like the nodes of a complete
// 8-ary tree: the 32KB unit is 0, the 4KB units 1..8, the 512B units
// 9..72. first is the unit's first block in the chunk, n its block count.
func nestedSlot(first meta.ChunkBlock, n int) int {
	k := meta.BlocksPerChunk / n // units of this size per chunk
	return (k-1)/7 + int(first)/n
}

// memo is a Memory's MAC memo: block and nested records in per-chunk
// pages, node records by counter-line address.
type memo struct {
	pages []*memoPage
	nodes map[uint64]*nodeRec
}

func (mm *memo) page(chunk meta.ChunkIdx) *memoPage {
	p := mm.pages[chunk]
	if p == nil {
		p = new(memoPage)
		mm.pages[chunk] = p
	}
	return p
}

// blockMAC returns BlockMAC(addr, ctr, ct), reusing the block's record
// when all three inputs equal the recorded ones.
func (m *Memory) blockMAC(addr, ctr uint64, ct *[meta.BlockSize]byte) crypto.MAC {
	r := &m.memo.page(meta.ChunkIndex(addr)).blocks[meta.BlockInChunk(addr)]
	if r.ok && r.addr == addr && r.ctr == ctr && r.ct == *ct {
		m.Stats.BlockMACs.Reused++
		return r.mac
	}
	m.Stats.BlockMACs.Computed++
	*r = blockRec{addr: addr, ctr: ctr, ct: *ct, mac: m.eng.BlockMAC(addr, ctr, ct[:]), ok: true}
	return r.mac
}

// nestedMAC returns NestedMAC(fines) for the coarse unit of granularity
// gran at base, reusing the unit's record when the fine-MAC list equals
// the recorded one.
func (m *Memory) nestedMAC(base uint64, gran meta.Gran, fines []crypto.MAC) crypto.MAC {
	p := m.memo.page(meta.ChunkIndex(base))
	n, first := len(fines), meta.BlockInChunk(base)
	r := &p.nested[nestedSlot(first, n)]
	in := p.fines[gran.Level()-1][first : first+meta.ChunkBlock(n)]
	if r.ok && r.base == base && r.n == n && slices.Equal(in, fines) {
		m.Stats.NestedSteps.Reused += uint64(n)
		return r.mac
	}
	m.Stats.NestedSteps.Computed += uint64(n)
	copy(in, fines)
	*r = nestedRec{base: base, n: n, mac: m.eng.NestedMAC(fines), ok: true}
	return r.mac
}

// nodeMAC returns NodeMAC(addr, parent, ents), reusing the line's record
// when all inputs equal the recorded ones.
func (m *Memory) nodeMAC(addr, parent uint64, ents *[meta.Arity]uint64) crypto.MAC {
	r := m.memo.nodes[addr]
	if r != nil && r.addr == addr && r.parent == parent && r.entries == *ents {
		m.Stats.NodeMACs.Reused++
		return r.mac
	}
	if r == nil {
		r = new(nodeRec)
		m.memo.nodes[addr] = r
	}
	m.Stats.NodeMACs.Computed++
	*r = nodeRec{addr: addr, parent: parent, entries: *ents, mac: m.eng.NodeMAC(addr, parent, ents[:])}
	return r.mac
}
