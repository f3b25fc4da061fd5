//go:build race

package topk

const raceEnabled = true
