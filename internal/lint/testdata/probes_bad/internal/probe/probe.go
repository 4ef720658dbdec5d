// Package probe declares the switch classes countSwitch charges.
package probe

// SwitchClass tags a granularity-switch cost event.
type SwitchClass int

// Switch classes mirror core.SwitchStats field for field; Correct has no
// class on purpose (a correct prediction is a non-event).
const (
	SwDownAll SwitchClass = iota
	SwUpWAR
)
