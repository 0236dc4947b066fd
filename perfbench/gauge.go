package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts with their
// neighbours' load. On a 2-vCPU VM the same one-machine evaluation ran
// between 0.6 and 1.6 times its median time, in regimes lasting from 30
// seconds to two minutes: as long as a run or longer, so a set of runs
// spreads past any bound whatever the samples within a run. A gauge
// therefore reads the host's speed between the run's timed samples, and
// every timing is reported in reference seconds: the median of its wall
// time samples divided by the run's slowdown, the time-weighted mean of
// the readings, each the host's slowdown against the reference host.
// The gauge is this file's fixed code, not the program's, so a change to
// the program moves its samples and never the gauge. lmbench reports its
// latencies in the clocks of a speed it measures first (mhz) for the
// same reason.
//
// A reading is the geometric mean of two slowdowns: of random lookups in
// a Go map of about a MiB, the simulator's kind of work, and of loopback
// TCP round trips, the store's and the fleet's. One reading is a
// snapshot of a few milliseconds on one vCPU, which on that VM can read
// half or twice the next; their mean over a run is what tracks the
// host. Over 7 minutes of one-machine evaluations, 12-second windows of
// them spread (quartile distance over median) 0.23 in wall time and 0.11
// divided by their mean reading; 25-second windows 0.22 and 0.06.
type gauge struct {
	table map[uint64]uint64
	ln    net.Listener
	conn  net.Conn
	echo  chan struct{} // closed when the echo goroutine has returned
	reads []float64
	at    []time.Time
}

const (
	gaugeKeys    = 1 << 15
	gaugeLookups = 200_000
	// gaugeLoops is how often a reading runs the lookup loop; it keeps
	// the fastest, which a preemption cannot lengthen.
	gaugeLoops = 3
	// gaugeTrips is how many round trips a reading makes; it keeps their
	// median, which a preemption cannot move.
	gaugeTrips = 200
	// gaugeLookupRefNS and gaugeTripRefNS scale the readings so that a
	// reference second is about a wall second on the reference host, a
	// 2-vCPU Intel Xeon VM, in the regime that held over most of the
	// runs made to set them.
	gaugeLookupRefNS = 3.74e6
	gaugeTripRefNS   = 11.86e3
)

func newGauge() (*gauge, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("gauge: %w", err)
	}
	g := &gauge{table: make(map[uint64]uint64, gaugeKeys), ln: ln, echo: make(chan struct{})}
	for i := uint64(0); i < gaugeKeys; i++ {
		g.table[i*2654435761] = i
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		defer close(g.echo)
		c, err := ln.Accept()
		accepted <- c
		if err != nil {
			return
		}
		_, _ = io.Copy(c, c) // ends when the client side closes
		c.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-g.echo
		return nil, fmt.Errorf("gauge: %w", err)
	}
	if <-accepted == nil {
		conn.Close()
		<-g.echo
		return nil, errors.New("gauge: loopback accept failed")
	}
	g.conn = conn
	return g, nil
}

// close stops the echo goroutine and waits for it.
func (g *gauge) close() {
	if g == nil {
		return
	}
	g.conn.Close()
	g.ln.Close()
	<-g.echo
}

// gaugeSink keeps the lookup loop's result live.
var gaugeSink uint64

func (g *gauge) lookups() time.Duration {
	start := time.Now()
	x, sum := uint64(7), uint64(0)
	for i := 0; i < gaugeLookups; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += g.table[(x&(gaugeKeys-1))*2654435761]
	}
	gaugeSink += sum
	return time.Since(start)
}

func (g *gauge) trips() (time.Duration, error) {
	lat := make([]time.Duration, gaugeTrips)
	buf := []byte{1}
	for i := range lat {
		start := time.Now()
		if _, err := g.conn.Write(buf); err != nil {
			return 0, fmt.Errorf("gauge: %w", err)
		}
		if _, err := io.ReadFull(g.conn, buf); err != nil {
			return 0, fmt.Errorf("gauge: %w", err)
		}
		lat[i] = time.Since(start)
	}
	slices.Sort(lat)
	return lat[len(lat)/2], nil
}

// tick reads the host's current slowdown against the reference host.
// It first finishes any garbage collection the program's work left
// running, which would otherwise compete with the reading: the gauge
// must read the host, not how much the program allocated. Without a
// gauge — the traced run — it does nothing.
func (g *gauge) tick() error {
	if g == nil {
		return nil
	}
	runtime.GC()
	best := g.lookups()
	for i := 1; i < gaugeLoops; i++ {
		best = min(best, g.lookups())
	}
	trip, err := g.trips()
	if err != nil {
		return err
	}
	g.reads = append(g.reads, math.Sqrt(float64(best)/gaugeLookupRefNS*float64(trip)/gaugeTripRefNS))
	g.at = append(g.at, time.Now())
	return nil
}

// slowdown is the run's slowdown: the mean of the readings, each
// weighted by the time from the reading before it to the one after, so
// that a burst of readings between short samples counts for no more
// than the seconds it covers.
func (g *gauge) slowdown() float64 {
	n := len(g.reads)
	if n < 2 {
		return 1
	}
	var sum, weights float64
	for i, v := range g.reads {
		w := g.at[min(i+1, n-1)].Sub(g.at[max(i-1, 0)]).Seconds()
		sum += w * v
		weights += w
	}
	if weights == 0 {
		return 1
	}
	return sum / weights
}
