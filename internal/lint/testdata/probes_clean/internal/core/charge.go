package core

import "unimem/internal/probe"

// ChargePaired emits every matching probe event and routes traffic through
// the seam.
func (e *Engine) ChargePaired(over int) {
	e.countSwitch(probe.SwDownAll)
	e.Stats.Switches.Correct++
	e.Stats.OverfetchBeats += uint64(over)
	e.probeOverfetch(over)
	e.memRead(0, 64)
}

// ChargeForwarded forwards a caller-chosen class to countSwitch.
func (e *Engine) ChargeForwarded(c probe.SwitchClass) {
	e.countSwitch(c)
}

// SwitchTotal only reads the counts.
func (e *Engine) SwitchTotal() uint64 {
	s := &e.Stats.Switches
	return s.DownAll + s.UpWAR + s.Correct
}

// WalkInLiteral pairs the walk counter inside the same func literal — the
// shape the real pipeline's per-unit callbacks use.
func (e *Engine) WalkInLiteral() {
	fn := func(levels int) {
		e.probeWalk(levels)
		e.Stats.WalkLevels++
	}
	fn(3)
}
