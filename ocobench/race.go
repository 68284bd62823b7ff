//go:build race

package main

// raceEnabled reports a -race build: the detector slows the simulator
// several-fold, so such a build would measure the detector.
const raceEnabled = true
