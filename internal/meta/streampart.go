package meta

import "math/bits"

// StreamPart is the per-chunk granularity encoding of paper section 4.4:
// one bit per 512B partition, set when the partition is a stream partition
// (promoted to at least 512B granularity). 0b111...1 encodes a full 32KB
// chunk; aligned fully-set groups of 8 bits encode 4KB regions.
type StreamPart uint64

// AllStream is the encoding of a fully-promoted 32KB chunk.
const AllStream StreamPart = ^StreamPart(0)

// IsStream reports whether partition p (0..63) is a stream partition.
func (sp StreamPart) IsStream(p PartIdx) bool { return sp>>(uint(p))&1 == 1 }

// groupBits extracts the 8 partition bits of 4KB group g (0..7).
func (sp StreamPart) groupBits(g int) uint8 { return uint8(sp >> (uint(g) * 8)) }

// GranOf returns the effective granularity of partition p: 32KB when the
// whole chunk streams, 4KB when p's aligned group of 8 partitions streams,
// 512B when only p streams, else 64B.
func (sp StreamPart) GranOf(p PartIdx) Gran {
	if sp == AllStream {
		return Gran32K
	}
	if sp.groupBits(int(p/8)) == 0xff {
		return Gran4K
	}
	if sp.IsStream(p) {
		return Gran512
	}
	return Gran64
}

// GranOfBlock returns the effective granularity covering block b (0..511)
// of the chunk.
func (sp StreamPart) GranOfBlock(b ChunkBlock) Gran { return sp.GranOf(b.Part()) }

// Unit identifies one protection unit inside a chunk: a maximal region
// sharing one counter and one MAC.
type Unit struct {
	// Gran is the unit's granularity.
	Gran Gran
	// Block is the first 64B block of the unit within the chunk (0..511).
	Block ChunkBlock
}

// Blocks returns the number of 64B blocks the unit covers.
func (u Unit) Blocks() int { return u.Gran.Blocks() }

// UnitOf returns the protection unit covering block b (0..511).
func (sp StreamPart) UnitOf(b ChunkBlock) Unit {
	g := sp.GranOfBlock(b)
	return Unit{Gran: g, Block: b.Align(g)}
}

// End returns the first block past the unit.
func (u Unit) End() ChunkBlock { return u.Block + ChunkBlock(u.Blocks()) }

// Units enumerates the chunk's protection units in address order.
func (sp StreamPart) Units() []Unit {
	var units []Unit
	for b := ChunkBlock(0); b < BlocksPerChunk; {
		u := sp.UnitOf(b)
		units = append(units, u)
		b = u.End()
	}
	return units
}

// groupSlots returns the number of compacted MAC slots used by 4KB group g.
func (sp StreamPart) groupSlots(g int) int {
	bitsSet := sp.groupBits(g)
	if bitsSet == 0xff {
		return 1
	}
	n := bits.OnesCount8(bitsSet)
	return n + (8-n)*BlocksPerPartition
}

// SlotsUsed returns the number of MAC slots the chunk occupies after
// compaction (Fig. 9): 1 for the whole chunk at 32KB, otherwise the sum of
// per-group usage — 1 per 4KB group, 1 per stream partition, 8 per fine
// partition. SlotsUsed never exceeds BlocksPerChunk (the fixed fine-grained
// reservation Eq. 1 indexes into).
func (sp StreamPart) SlotsUsed() int {
	if sp == AllStream {
		return 1
	}
	total := 0
	for g := 0; g < 8; g++ {
		total += sp.groupSlots(g)
	}
	return total
}

// MACSlot returns the compacted MAC slot index (0..511) for block b
// (0..511) under this encoding, and the granularity of the MAC stored
// there. Coarse units occupy one slot placed front-to-back in address
// order, removing the fragmentation of Fig. 9.
func (sp StreamPart) MACSlot(b ChunkBlock) (slot int, g Gran) {
	if sp == AllStream {
		return 0, Gran32K
	}
	group := int(b / (BlocksPerPartition * 8)) // 4KB group index 0..7
	slot = 0
	for gI := 0; gI < group; gI++ {
		slot += sp.groupSlots(gI)
	}
	gb := sp.groupBits(group)
	if gb == 0xff {
		return slot, Gran4K
	}
	partInGroup := int(b.Part() % 8)
	for p := 0; p < partInGroup; p++ {
		if gb>>uint(p)&1 == 1 {
			slot++
		} else {
			slot += BlocksPerPartition
		}
	}
	if gb>>uint(partInGroup)&1 == 1 {
		return slot, Gran512
	}
	return slot + int(b%BlocksPerPartition), Gran64
}

// PromoteMask returns the encoding with partitions [first, first+count)
// forced to stream, leaving others unchanged.
func (sp StreamPart) PromoteMask(first PartIdx, count int) StreamPart {
	return sp | maskRange(first, count)
}

// DemoteMask returns the encoding with partitions [first, first+count)
// forced to fine-grained.
func (sp StreamPart) DemoteMask(first PartIdx, count int) StreamPart {
	return sp &^ maskRange(first, count)
}

// maskRange returns the bits of partitions [first, first+count). A shift
// by 64 yields 0 in Go, so count 64 (first 0) gives AllStream.
func maskRange(first PartIdx, count int) StreamPart {
	return StreamPart((uint64(1)<<uint(count) - 1) << uint(first))
}

// CountStream returns the number of stream partitions.
func (sp StreamPart) CountStream() int { return bits.OnesCount64(uint64(sp)) }
