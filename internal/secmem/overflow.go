package secmem

import (
	"fmt"

	"unimem/internal/meta"
)

// Bounded counters and overflow handling. Real memory-protection engines
// store small per-block counters (56-bit in SGX, 7-bit minors in
// split-counter designs); when a minor counter saturates, the region's
// major counter bumps and the whole region is re-encrypted, because every
// block's effective counter — major<<width | minor — changes. This file
// implements that mechanism with a per-chunk major counter: a configurable
// minor width makes overflow testable (width 64 disables it, the default).
//
// Security argument for the major counters living off-chip unprotected:
// the MACs bind the *effective* counter, so tampering a major garbles
// decryption and fails the MAC; rolling back a major together with all
// matching minors/MACs/tree nodes is a full replay, which the on-chip
// roots catch like any other replay.

// SetCounterWidth bounds minor counters to the given number of bits
// (1..63; 0 restores unbounded counters). Must be called before the
// first write.
func (m *Memory) SetCounterWidth(bits int) {
	if bits < 0 || bits > 63 {
		panic(fmt.Sprintf("secmem: counter width %d out of range", bits))
	}
	if len(m.data) != 0 {
		panic("secmem: SetCounterWidth after writes")
	}
	m.ctrBits = bits
}

// effectiveCtr combines a chunk's major epoch with a minor counter value.
func (m *Memory) effectiveCtr(chunk meta.ChunkIdx, minor uint64) uint64 {
	if m.ctrBits == 0 {
		return minor
	}
	return m.majors[chunk]<<uint(m.ctrBits) | minor
}

// minorLimit returns the first minor value that no longer fits.
func (m *Memory) minorLimit() uint64 {
	if m.ctrBits == 0 {
		return ^uint64(0)
	}
	return 1 << uint(m.ctrBits)
}

// bumpMajor handles minor-counter saturation: the chunk's major epoch
// advances and every written block of the chunk is re-encrypted under its
// new effective counter, with all unit MACs recomputed — the overflow
// cost real split-counter designs pay (cf. Morphable Counters [41]).
func (m *Memory) bumpMajor(chunk meta.ChunkIdx) error {
	sp := m.table.Current(chunk)
	chunkBase := chunk.Base()
	units := sp.Units()

	// Verify and stage everything under the old epoch first: an epoch bump
	// that resealed tampered ciphertext would launder the tamper.
	for _, u := range units {
		if _, err := m.captureUnit(chunkBase+u.Block.Offset(), u.Gran, sp); err != nil {
			return err
		}
	}

	m.majors[chunk]++
	m.Stats.Overflows++

	// Re-encrypt and reseal every touched unit under the new epoch; minors
	// are unchanged, so each unit's counter reads as captured.
	for _, u := range units {
		base := chunkBase + u.Block.Offset()
		minor := m.unitCounter(base, u.Gran)
		if minor == 0 {
			// Never written: every path that stores ciphertext in a
			// unit also gives it a counter, so nothing is staged here
			// and the unit stays pristine.
			continue
		}
		m.sealUnit(base, u.Gran, m.effectiveCtr(chunk, minor))
	}
	return nil
}
