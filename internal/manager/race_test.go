//go:build race

package manager

func init() { raceEnabled = true }
