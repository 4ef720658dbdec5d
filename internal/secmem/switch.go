package secmem

import (
	"fmt"

	"unimem/internal/meta"
	"unimem/internal/probe"
)

// ApplyDetection switches a chunk to a newly detected granularity encoding
// (paper Fig. 13). Scale-up assigns each promoted unit
// max(child counters)+1 and re-encrypts the unit under the fresh shared
// counter; scale-down retains the parent counter value in the children, so
// existing ciphertext stays valid and only fine MACs are regenerated.
// MAC slots are recomputed for every unit because compaction (Fig. 9)
// moves slots when any partition of the chunk changes.
func (m *Memory) ApplyDetection(chunk meta.ChunkIdx, newSP meta.StreamPart) error {
	if chunk >= m.geom.Chunks() {
		panic(fmt.Sprintf("secmem: chunk %d outside region", chunk))
	}
	oldSP := m.table.Current(chunk)
	if oldSP == newSP {
		return nil
	}
	chunkBase := chunk.Base()

	// Scale-up assigns max(children)+1; if that would saturate a bounded
	// minor counter, bump the chunk's major epoch first. Demotion-only
	// switches increment nothing and must not trigger the bump (it would
	// needlessly re-encrypt, defeating Fig. 13 b's no-re-encryption
	// property).
	if m.ctrBits != 0 && anyScaleUp(oldSP, newSP) {
		for _, u := range oldSP.Units() {
			base := chunkBase + u.Block.Offset()
			if m.unitCounter(base, u.Gran)+1 >= m.minorLimit() {
				if err := m.bumpMajor(chunk); err != nil {
					return err
				}
				break
			}
		}
	}

	// Verify and capture the old state: per old unit, verify the chain
	// (freshness) and the unit MAC (content), then decrypt every stored
	// block into the on-chip staging buffer (captureUnit). The reseal phase
	// below works exclusively from this captured plaintext — resealing from
	// off-chip ciphertext after verification would let a mid-switch tamper
	// be laundered into fresh MACs.
	var oldCtrs [meta.BlocksPerChunk]uint64 // old unit counters, by first block
	for _, u := range oldSP.Units() {
		base := chunkBase + u.Block.Offset()
		ctr, err := m.captureUnit(base, u.Gran, oldSP)
		if err != nil {
			return err
		}
		oldCtrs[u.Block] = ctr
		delete(m.macs, m.unitMACAddr(base, oldSP))
	}
	// oldOf returns the old unit covering block b of the chunk and its
	// counter.
	oldOf := func(b meta.ChunkBlock) (meta.Unit, uint64) {
		u := oldSP.UnitOf(b)
		return u, oldCtrs[u.Block]
	}

	// Commit the new encoding so slot/unit resolution below uses it.
	m.table.SetNext(chunk, newSP)
	m.table.CommitAll(chunk)

	// The switch window is open: metadata committed, units not resealed.
	// Campaigns hook this to land mid-switch mutations; because the reseal
	// below writes back from captured plaintext, anything an attacker does
	// to the chunk's off-chip image inside the window is either overwritten
	// or left inconsistent with the fresh MACs — and thus detected.
	if m.prb != nil {
		m.prb.Event(probe.Event{
			Kind: probe.EvSwitchWindow, Addr: chunkBase,
			Val: int64(oldSP), Aux: int64(newSP),
		})
	}

	for _, u := range newSP.Units() {
		base := chunkBase + u.Block.Offset()
		level := u.Gran.Level()
		entry := m.geom.CounterEntryIndex(level, meta.BlockIndex(base))

		cover, coverCtr := oldOf(u.Block)
		switch {
		case cover == u:
			// Same unit; only its MAC slot may have moved. Untouched units
			// have no MAC to move — sealing one would authenticate the
			// zero ciphertext and break fresh-memory-reads-zero semantics.
			if coverCtr != 0 || !m.unitUntouched(base, u.Gran) {
				m.sealUnit(base, u.Gran, m.effectiveCtr(chunk, coverCtr))
			}

		//mutate:ignore swap-ineq an old unit of equal granularity covering base is base-aligned, so cover == u and the arm above takes every equal-gran case; >= versus > is unreachable
		case cover.Gran > u.Gran:
			// Scale-down: children retain the parent counter value
			// (Fig. 13 b), so ciphertext is still valid under the same
			// (address, counter) pad; regenerate the finer MACs only.
			m.Stats.Demotions++
			m.writeCounter(level, entry, coverCtr)
			m.sealUnit(base, u.Gran, m.effectiveCtr(chunk, coverCtr))

		default:
			// Scale-up: the promoted counter becomes max of the covered
			// old counters plus one (Fig. 13 a); all member blocks are
			// re-encrypted under the fresh shared counter, never-written
			// ones materialized as zeros so the nested MAC covers
			// well-defined contents.
			m.Stats.Promotions++
			var maxCtr uint64
			for b := u.Block; b < u.End(); b++ {
				_, c := oldOf(b)
				maxCtr = max(maxCtr, c)
				if !m.held[b] {
					m.plain[b] = [meta.BlockSize]byte{}
					m.held[b] = true
				}
			}
			newCtr := maxCtr + 1
			m.writeCounter(level, entry, newCtr)
			m.sealUnit(base, u.Gran, m.effectiveCtr(chunk, newCtr))
		}
	}
	return nil
}

// anyScaleUp reports whether the transition promotes any partition. A
// partition's granularity grows only with a bit newly set in its own,
// its 4KB group's or the chunk's encoding, and a newly set bit promotes
// its own partition from 64B, so any newly set bit is a promotion.
func anyScaleUp(oldSP, newSP meta.StreamPart) bool { return newSP&^oldSP != 0 }

// Promote raises the granularity of the partitions [first, first+count) of
// a chunk to stream partitions, keeping the rest unchanged.
func (m *Memory) Promote(chunk meta.ChunkIdx, first meta.PartIdx, count int) error {
	return m.ApplyDetection(chunk, m.table.Current(chunk).PromoteMask(first, count))
}

// Demote lowers the partitions [first, first+count) back to fine-grained.
func (m *Memory) Demote(chunk meta.ChunkIdx, first meta.PartIdx, count int) error {
	return m.ApplyDetection(chunk, m.table.Current(chunk).DemoteMask(first, count))
}
