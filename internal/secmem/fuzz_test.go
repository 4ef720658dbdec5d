package secmem

import (
	"testing"

	"unimem/internal/meta"
)

// FuzzAttackCheck interleaves legitimate operations with off-chip attack
// primitives and checks the detection contract of the functional layer:
// verification errors occur iff the off-chip state diverged from a clean
// shadow twin driven by the same legitimate schedule. Neither direction may
// fail — an error on non-diverged state is a false positive, a clean sweep
// over diverged state is a missed attack.
//
// The one deliberate exclusion is granularity-table corruption that only
// re-encodes pristine partitions: unwritten state carries no MACs, so
// changing how it would be laid out is semantically void and provably
// unobservable. The fuzz therefore corrupts the encoding of a partition
// holding a written block (the campaign harness enforces the same
// restriction via its warmup write to the attacked partition).
func FuzzAttackCheck(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 0, 0, 4, 0, 0})          // write, tamper data, read
	f.Add([]byte{0, 7, 2, 6, 0, 3, 10, 7, 0})         // write, promote, tamper counter
	f.Add([]byte{0, 1, 5, 12, 1, 9, 0, 1, 6})         // write, table-corrupt, rewrite
	f.Add([]byte{0, 9, 1, 11, 9, 64, 4, 9, 0})        // write, splice, read
	f.Add([]byte{0, 2, 8, 9, 2, 0, 6, 0, 9, 4, 2, 0}) // write, tamper mac, promote, read
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := New(2*meta.ChunkSize, 11)
		twin := New(2*meta.ChunkSize, 11)
		written := map[uint64]bool{}
		var detected error
		var detectedAt string

		for i := 0; i+2 < len(raw) && detected == nil; i += 3 {
			kind, sel, val := raw[i]%13, raw[i+1], raw[i+2]
			addr := uint64(sel) % (2 * meta.BlocksPerChunk) * meta.BlockSize
			chunk := meta.ChunkIndex(addr)
			// Legitimate ops run on the twin first: the twin is clean by
			// construction, so a twin error means the operation itself is
			// invalid (skip it), while a victim-only error is a detection.
			switch {
			case kind < 4: // write
				b := block(val)
				if err := twin.Write(addr, b); err != nil {
					continue
				}
				if err := v.Write(addr, b); err != nil {
					detected, detectedAt = err, "write"
					continue
				}
				written[addr] = true
			case kind < 6: // read
				if _, err := twin.Read(addr); err != nil {
					continue
				}
				if _, err := v.Read(addr); err != nil {
					detected, detectedAt = err, "read"
				}
			case kind == 6: // promote
				if err := twin.Promote(chunk, meta.PartIdx(val%60), int(val)%8+1); err != nil {
					continue
				}
				if err := v.Promote(chunk, meta.PartIdx(val%60), int(val)%8+1); err != nil {
					detected, detectedAt = err, "promote"
				}
			case kind == 7: // demote
				if err := twin.Demote(chunk, meta.PartIdx(val%60), int(val)%8+1); err != nil {
					continue
				}
				if err := v.Demote(chunk, meta.PartIdx(val%60), int(val)%8+1); err != nil {
					detected, detectedAt = err, "demote"
				}
			case kind == 8:
				v.TamperData(addr)
			case kind == 9:
				v.TamperMAC(addr)
			case kind == 10:
				v.TamperCounter(addr)
			case kind == 11:
				partner := uint64(val) % (2 * meta.BlocksPerChunk) * meta.BlockSize
				v.SpliceData(addr, partner)
			default: // table corruption of a written partition (see doc)
				if !written[addr] {
					continue
				}
				p := meta.PartIndex(addr)
				cur := v.Table().Current(chunk)
				sp := cur.PromoteMask(p, 1)
				if cur.IsStream(p) {
					sp = cur.DemoteMask(p, 1)
				}
				v.TamperTable(chunk, sp)
			}
		}

		diverged := !v.Snapshot().Equal(twin.Snapshot())
		if detected != nil {
			if !diverged {
				t.Fatalf("false positive: %s error on non-diverged state: %v", detectedAt, detected)
			}
			return
		}

		// No mid-stream detection: sweep one Check per protection unit and
		// require error iff the off-chip images differ.
		var sweepErr error
	sweep:
		for chunk := meta.ChunkIdx(0); chunk < 2; chunk++ {
			sp := v.Table().Current(chunk)
			for b := meta.ChunkBlock(0); b < meta.BlocksPerChunk; {
				u := sp.UnitOf(b)
				addr := chunk.Base() + u.Block.Offset()
				if err := v.Check(addr); err != nil {
					sweepErr = err
					break sweep
				}
				b = u.End()
			}
		}
		if diverged && sweepErr == nil {
			t.Fatal("missed attack: off-chip state diverged from the clean twin but the sweep verified clean")
		}
		if !diverged && sweepErr != nil {
			t.Fatalf("false positive: sweep error on non-diverged state: %v", sweepErr)
		}
	})
}
