package main

import "time"

// The benchmark's only wall-clock reads. sovlint treats whatever a
// //sovlint:wallclock function returns as host-class and refuses to let it
// reach a trace, a report or an RNG seed, so these two return times and
// nothing else, and no function that builds or returns simulation state
// reads the clock itself.

//sovlint:wallclock
func now() time.Time { return time.Now() }

//sovlint:wallclock
func since(t time.Time) time.Duration { return time.Since(t) }

// millis and micros convert a duration to the float units the metrics use.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
