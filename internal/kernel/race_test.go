//go:build race

package kernel

func init() { raceEnabled = true }
