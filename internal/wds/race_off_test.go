//go:build !race

package wds

const raceEnabled = false
