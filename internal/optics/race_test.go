//go:build race

package optics

func init() { raceEnabled = true }
