package core

import "unimem/internal/probe"

// ChargeMissing charges counters without their probe events and bypasses
// the memory seam; Correct has no probe class and stays exempt.
func (e *Engine) ChargeMissing(over int) {
	e.Stats.Switches.DownAll++
	e.Stats.Switches.Correct++
	e.Stats.OverfetchBeats += uint64(over)
	e.Stats.WalkLevels++
	e.mm.Read(0, 64)
}

// ChargeWrongClass bumps one class by hand and charges another.
func (e *Engine) ChargeWrongClass() {
	e.Stats.Switches.UpWAR++
	e.countSwitch(probe.SwDownAll)
}

// ResetCount overwrites a class count and leaks a pointer to another.
func (e *Engine) ResetCount() *uint64 {
	e.Stats.Switches.UpWAR = 0
	return &e.Stats.Switches.DownAll
}
