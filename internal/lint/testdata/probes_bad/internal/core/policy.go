package core

// lazyPolicy charges switch costs the way a scheme policy might: through a
// *SwitchStats local rather than the literal e.Stats.Switches path.
type lazyPolicy struct{}

// OnDetection bumps a class count through the typed path, which the rule
// must still see as a write outside countSwitch.
func (lazyPolicy) OnDetection(e *Engine) {
	st := &e.Stats.Switches
	st.UpWAR++
	st.Correct++ // no probe class: exempt even through the typed path
}
