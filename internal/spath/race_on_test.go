//go:build race

package spath

const raceEnabled = true
