// Package core exercises the probe-discipline rule: cost counters, probe
// emitters, and the memRead seam live here in observe.go, which is exempt
// from the raw-memory check by construction.
package core

import (
	"unimem/internal/mem"
	"unimem/internal/probe"
)

// SwitchStats counts Table 2 switch charges.
type SwitchStats struct {
	DownAll uint64
	UpWAR   uint64
	Correct uint64
}

// Stats is the engine counter block.
type Stats struct {
	Switches       SwitchStats
	OverfetchBeats uint64
	WalkLevels     uint64
}

// Engine is the cost model under test.
type Engine struct {
	Stats Stats
	mm    *mem.Memory
}

// countSwitch is the one writer of the switch counts: it also emits the
// switch event.
func (e *Engine) countSwitch(c probe.SwitchClass) {
	s := &e.Stats.Switches
	switch c {
	case probe.SwDownAll:
		s.DownAll++
	case probe.SwUpWAR:
		s.UpWAR++
	}
}

func (e *Engine) probeOverfetch(beats int) {}

func (e *Engine) probeWalk(levels int) {}

// memRead is the only legal path to raw memory.
func (e *Engine) memRead(addr uint64, size int) {
	e.mm.Read(addr, size)
}
