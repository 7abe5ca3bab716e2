//go:build !race

package tvf

const raceEnabled = false
