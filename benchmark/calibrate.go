package main

import (
	"math"
	"slices"
	"time"
)

// speed is how fast the machine ran during the segment, as a share of the
// reference speed; 1 for a segment without a calibration.
func (s segment) speed() float64 { return machineSpeed(s.CalUs) }

// The calibration kernel. The speed of a few cores of a shared host is not a
// constant: on the container this was written on the same code ran up to
// twice slower for tens of seconds to minutes at a time, CPU time per op
// rising with latency and no steal time reported, so that ten runs of one
// commit spread by a fifth whatever their length. Each client therefore runs,
// every calEvery of the timed phase, between two ops, a small fixed piece of
// work of the kind the product does (scan rows, filter, group, sort) and times
// it. A segment's timing values are scaled by how the kernel's median time in
// that segment compares with calRefUs, its time beside a busy neighbour on
// that container in a quiet hour: they are reported at the reference speed.
// The kernel lives here and calls nothing of the product, so no change to the
// product moves it; it costs each client 0.7 % of the phase.
const (
	calEvery      = 20 * time.Millisecond
	calEverySetup = 5 * time.Millisecond // a set-up may last under a tenth of a second
	calRows       = 2000
	calRefUs      = 50.0
)

type calRow struct {
	group int
	score float64
}

const calGroups = 13

var calTable = func() []calRow {
	table := make([]calRow, 16*calRows)
	for i := range table {
		table[i] = calRow{group: i * 7919 % calGroups, score: float64(i*31%1000) / 10}
	}
	return table
}()

// calScratch is the memory one caller's kernel runs work in. The kernel
// allocates nothing and stores no pointers, so neither the state of the
// garbage collector nor anything else the product leaves behind reaches it
// except through the machine.
type calScratch struct {
	groups [calGroups][]float64
	off    int
	sink   uint64
}

func newCalScratch() *calScratch {
	c := new(calScratch)
	for g := range c.groups {
		c.groups[g] = make([]float64, 0, calRows)
	}
	return c
}

// run is the kernel: over the next stretch of calTable, filter the rows,
// group their scores, sort each group and mix the groups' medians.
func (c *calScratch) run() {
	for g := range c.groups {
		c.groups[g] = c.groups[g][:0]
	}
	for _, r := range calTable[c.off : c.off+calRows] {
		if r.score > 20 {
			c.groups[r.group] = append(c.groups[r.group], r.score)
		}
	}
	for _, scores := range c.groups {
		slices.Sort(scores)
		c.sink = splitmix64(c.sink ^ math.Float64bits(scores[len(scores)/2]))
	}
}

// time runs the kernel twice on one stretch and returns the second run's
// time in µs: the first brings the stretch and the kernel's code into the
// caches, so that what ran before — an op that left them cold or another
// calibration that left them warm — does not show.
func (c *calScratch) time() float64 {
	c.off = (c.off + calRows) % (len(calTable) - calRows)
	c.run()
	start := time.Now()
	c.run()
	return float64(time.Since(start)) / 1e3
}

// calibrateDuring runs fn while a goroutine of its own times the kernel every
// every, as the clients do between the ops of a timed phase, and returns the
// kernel's median time in µs while fn ran (0 if fn was over before the first).
func calibrateDuring(every time.Duration, fn func() error) (calUs float64, err error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var us []float64
	go func() {
		defer close(done)
		c := newCalScratch()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				us = append(us, c.time())
			case <-stop:
				return
			}
		}
	}()
	err = fn()
	close(stop)
	<-done
	return median(us), err
}

// machineSpeed is the machine's speed as a share of the reference speed when
// the kernel takes calUs; 1 when there is no measurement.
func machineSpeed(calUs float64) float64 {
	if calUs <= 0 {
		return 1
	}
	return calRefUs / calUs
}
