package main

import "time"

// openLoop issues op on a fixed schedule: call i is due at start + i/perSec,
// for every due time inside [start, start+d). The schedule never slows when
// the system does: a call that overruns its slot makes the next one start
// late, and that wait is charged to the late call, because each latency is
// taken from the call's due time to the completion time op returns. One
// caller is one connection, so calls do not overlap; maxLateMs is the
// longest any call started after it was due, which is how far the generator
// (or a stalled predecessor) fell behind the schedule.
func openLoop(start time.Time, perSec float64, d time.Duration,
	op func(i int, due time.Time) (done time.Time, err error)) (latsMs []float64, maxLateMs float64, err error) {
	step := time.Duration(float64(time.Second) / perSec)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * step)
		if due.Sub(start) >= d {
			return latsMs, maxLateMs, nil
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		maxLateMs = max(maxLateMs, ms(time.Since(due)))
		done, err := op(i, due)
		if err != nil {
			return latsMs, maxLateMs, err
		}
		latsMs = append(latsMs, ms(done.Sub(due)))
	}
}
