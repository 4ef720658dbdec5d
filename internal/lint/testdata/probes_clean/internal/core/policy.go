package core

import "unimem/internal/probe"

// lazyPolicy charges switch costs the way a scheme policy does: through
// countSwitch, with Correct counted through a *SwitchStats local.
type lazyPolicy struct{}

// OnDetection charges through the one writer.
func (lazyPolicy) OnDetection(e *Engine) {
	e.countSwitch(probe.SwUpWAR)
	st := &e.Stats.Switches
	st.Correct++ // no probe class: exempt even through the typed path
}
