package attack

import (
	"fmt"

	"unimem/internal/core"
	"unimem/internal/meta"
)

// Config parameterises one campaign: a scheme under attack, one attack
// class, and a deterministic schedule seed. Identical Configs produce
// identical Results.
type Config struct {
	Scheme core.Scheme `json:"scheme"`
	Class  Class       `json:"class"`
	Seed   uint64      `json:"seed"`
	// Chunks is the protected-region size in 32KB chunks (minimum 3;
	// default 4 — chunk 0 hosts granularity switches, higher chunks stay
	// fine-grained so counter attacks always have off-chip targets).
	Chunks int `json:"chunks"`
	// Ops is the number of legitimate operations per phase (default 48).
	Ops int `json:"ops"`
}

func (cfg Config) fill() Config {
	if cfg.Chunks < 3 {
		cfg.Chunks = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 48
	}
	return cfg
}

// Result is a campaign's outcome.
type Result struct {
	// Landed reports whether the attack mutated off-chip state.
	Landed bool `json:"landed"`
	// Detected reports whether any post-attack verification failed.
	Detected bool `json:"detected"`
	// Diverged reports whether victim state differed from the twin
	// immediately after the attack (before the post-attack phase, so later
	// legitimate writes cannot heal the comparison).
	Diverged bool `json:"diverged"`
	// Err is the first verification error observed (empty when none).
	Err string `json:"err,omitempty"`
	// Schedule is the deterministic log of operations and the attack —
	// the replay artifact's human-readable half.
	Schedule []string `json:"schedule"`
}

// campaign is one run's working state: victim, twin, and the shared
// deterministic schedule.
type campaign struct {
	cfg     Config
	r       *rng
	v, twin victim
	written map[meta.ChunkIdx][]uint64 // written block addresses per chunk, in order
	res     Result
}

// Run executes one campaign: a mirrored warmup, the attack injection, a
// divergence check against the twin, a mirrored post-attack phase, and a
// per-unit verification sweep. Any verification error after the attack
// counts as detection.
func Run(cfg Config) Result {
	cfg = cfg.fill()
	region := uint64(cfg.Chunks) * meta.ChunkSize
	prof := ProfileOf(cfg.Scheme)
	c := &campaign{
		cfg:     cfg,
		r:       newRNG(cfg.Seed ^ uint64(cfg.Scheme)<<40 ^ uint64(cfg.Class)<<32),
		v:       newVictim(prof, region, cfg.Seed),
		twin:    newVictim(prof, region, cfg.Seed),
		written: map[meta.ChunkIdx][]uint64{},
	}
	c.warmup()
	snap := c.prepareSnapshot()
	c.res.Landed = c.attack(snap)
	c.res.Diverged = !c.v.StateEqual(c.twin)
	c.phaseOps("post")
	c.sweep()
	return c.res
}

func (c *campaign) logf(format string, args ...any) {
	c.res.Schedule = append(c.res.Schedule, fmt.Sprintf(format, args...))
}

// detect records the first post-attack verification failure.
func (c *campaign) detect(context string, err error) {
	if c.res.Detected {
		return
	}
	c.res.Detected = true
	c.res.Err = fmt.Sprintf("%s: %v", context, err)
	c.logf("DETECTED at %s: %v", context, err)
}

// mirror runs one legitimate operation on the victim and, when it
// succeeds, on the twin. A victim failure is a detection (only possible
// after the attack); the twin never fails on the clean schedule.
func (c *campaign) mirror(desc string, op func(victim) error) bool {
	c.logf("%s", desc)
	if err := op(c.v); err != nil {
		c.detect(desc, err)
		return false
	}
	_ = op(c.twin)
	return true
}

// fillBlock builds the deterministic 64-byte payload for a fill byte.
func fillBlock(fill byte) []byte {
	b := make([]byte, meta.BlockSize)
	for i := range b {
		b[i] = fill ^ byte(i)
	}
	return b
}

// write performs one mirrored write and records the address.
func (c *campaign) write(addr uint64, fill byte) bool {
	ok := c.mirror(fmt.Sprintf("write %#x fill=%#x", addr, fill), func(v victim) error {
		return v.Write(addr, fillBlock(fill))
	})
	if ok {
		chunk := meta.ChunkIndex(addr)
		c.written[chunk] = append(c.written[chunk], addr)
	}
	return ok
}

// warmup seeds every chunk with a guaranteed write, then runs the random
// mirrored phase. Granularity switches stay on chunk 0, so higher chunks
// remain fine-grained (off-chip counters for CounterTamper, stable
// splice targets).
func (c *campaign) warmup() {
	for k := 0; k < c.cfg.Chunks; k++ {
		c.write(uint64(k)*meta.ChunkSize, byte(c.r.next()))
	}
	c.phaseOps("warmup")
}

// phaseOps runs cfg.Ops random mirrored operations; after the attack the
// phase stops at the first detection.
func (c *campaign) phaseOps(phase string) {
	switching := ProfileOf(c.cfg.Scheme) == ProfileFullSwitching
	for i := 0; i < c.cfg.Ops; i++ {
		if c.res.Detected {
			return
		}
		switch pick := c.r.rangeN(10); {
		case pick < 5: // write a random block
			chunk := c.r.rangeN(uint64(c.cfg.Chunks))
			addr := chunk*meta.ChunkSize + c.r.rangeN(meta.BlocksPerChunk)*meta.BlockSize
			c.write(addr, byte(c.r.next()))
		case pick < 8: // read a previously written block
			addr := c.pickWritten(meta.ChunkIdx(c.r.rangeN(uint64(c.cfg.Chunks))))
			c.mirror(fmt.Sprintf("%s read %#x", phase, addr), func(v victim) error {
				return v.Read(addr)
			})
		default: // toggle one partition of chunk 0's granularity
			if !switching {
				continue
			}
			p := meta.PartIdx(c.r.rangeN(meta.PartsPerChunk))
			cur := c.v.CurrentSP(0)
			sp := cur.PromoteMask(p, 1)
			if cur.IsStream(p) {
				sp = cur.DemoteMask(p, 1)
			}
			c.mirror(fmt.Sprintf("%s switch chunk0 sp=%#x", phase, uint64(sp)), func(v victim) error {
				_, err := v.Switch(0, sp, nil)
				return err
			})
		}
	}
}

// pickWritten returns a written address of the chunk (every chunk has at
// least its warmup write; fall back to block 0).
func (c *campaign) pickWritten(chunk meta.ChunkIdx) uint64 {
	ws := c.written[chunk]
	if len(ws) == 0 {
		return chunk.Base()
	}
	return ws[int(c.r.rangeN(uint64(len(ws))))]
}

// firstWritten returns the chunk's first (warmup) write — a deterministic
// attack target.
func (c *campaign) firstWritten(chunk meta.ChunkIdx) uint64 {
	ws := c.written[chunk]
	if len(ws) == 0 {
		return chunk.Base()
	}
	return ws[0]
}

// prepareSnapshot arms the stale-state attacks: capture the off-chip
// image, then advance the victim with one more mirrored write so the
// snapshot is genuinely stale.
func (c *campaign) prepareSnapshot() any {
	if c.cfg.Class != Replay && c.cfg.Class != Rollback {
		return nil
	}
	c.logf("snapshot off-chip state")
	snap := c.v.Snapshot()
	c.write(c.firstWritten(1), byte(c.r.next()))
	return snap
}

// attack injects the configured attack class and reports whether it
// landed.
func (c *campaign) attack(snap any) bool {
	v := c.v
	switch c.cfg.Class {
	case DataTamper:
		t := c.firstWritten(1)
		c.logf("attack data-tamper %#x", t)
		return v.TamperData(t)
	case MACTamper:
		t := c.firstWritten(1)
		c.logf("attack mac-tamper %#x", t)
		return v.TamperMAC(t)
	case CounterTamper:
		t := c.firstWritten(1)
		c.logf("attack counter-tamper %#x", t)
		return v.TamperCounter(t)
	case Splice:
		a, b := c.firstWritten(1), c.firstWritten(meta.ChunkIdx(c.cfg.Chunks-1))
		c.logf("attack splice %#x <-> %#x", a, b)
		return v.Splice(a, b)
	case XGranSplice:
		// Open a lazy-switch window on chunk 0 (a legitimate switch,
		// mirrored on the twin) and splice inside it: a block of the
		// switching chunk against a fine-grained block of chunk 1.
		a, b := c.firstWritten(0), c.firstWritten(1)
		cur := v.CurrentSP(0)
		sp := cur.PromoteMask(0, 1)
		if cur.IsStream(0) {
			sp = cur.DemoteMask(0, 1)
		}
		c.logf("attack xgran-splice %#x <-> %#x inside switch to sp=%#x", a, b, uint64(sp))
		landed := false
		fired, err := v.Switch(0, sp, func() { landed = v.Splice(a, b) })
		if err != nil {
			c.detect("switch during xgran-splice", err)
		}
		if fired {
			_, _ = c.twin.Switch(0, sp, nil)
		}
		return fired && landed
	case Replay:
		c.logf("attack replay stale snapshot")
		return v.Replay(snap)
	case Rollback:
		c.logf("attack rollback counters to stale snapshot")
		return v.Rollback(snap)
	case TableCorrupt:
		cur := v.CurrentSP(0)
		target := meta.AllStream
		if cur == meta.AllStream {
			target = 0
		}
		c.logf("attack table-corrupt chunk0 sp=%#x", uint64(target))
		return v.TamperTable(0, target)
	}
	return false
}

// sweep checks one address per protection unit across the region; the
// unit MAC covers every member block, so this authenticates all stored
// state. It stops at the first detection.
func (c *campaign) sweep() {
	for chunk := meta.ChunkIdx(0); chunk < meta.ChunkIdx(c.cfg.Chunks); chunk++ {
		sp := c.v.CurrentSP(chunk)
		for b := meta.ChunkBlock(0); b < meta.BlocksPerChunk; {
			u := sp.UnitOf(b)
			addr := chunk.Base() + u.Block.Offset()
			if err := c.v.Check(addr); err != nil {
				c.detect(fmt.Sprintf("sweep %#x", addr), err)
				return
			}
			b = u.End()
		}
	}
	c.logf("sweep clean")
}

// Verdict compares a campaign result against the detection matrix,
// returning "" on agreement or a description of the mismatch. This is the
// single assertion shared by the matrix test, the soak and the CLI.
func Verdict(cfg Config, res Result) string {
	cfg = cfg.fill()
	cell := MatrixFor(cfg.Scheme)[cfg.Class]
	switch cell.Expect {
	case Detected:
		if !res.Landed {
			return "expected the attack to land, but it did not"
		}
		if !res.Detected {
			return "attack landed but was not detected"
		}
	case Undetectable:
		if !res.Landed {
			return "expected the attack to land, but it did not"
		}
		if res.Detected {
			return "attack was detected, but the matrix documents it as provably undetectable"
		}
		if !res.Diverged {
			return "undetectable attack did not diverge state (the claim would be vacuous)"
		}
	case Impossible:
		if res.Landed {
			return "attack landed, but the matrix documents it as impossible"
		}
		if res.Detected {
			return "impossible attack triggered a detection: " + res.Err
		}
		if res.Diverged {
			return "impossible attack diverged state"
		}
	}
	return ""
}
