package main

import (
	"time"

	"mmfs/internal/client"
)

// prober is the open-loop second connection of wire-vod: it sends
// STATS on a fixed schedule whatever the closed loop is doing, and
// times each reply from the instant the request was due, so a stall
// behind the server's lock is charged to every request it delayed.
type prober struct {
	c        *client.Client
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	// Written by the prober goroutine, read after join.
	ms      []float64 // due time → reply, ms
	lagMaxM float64   // how late the generator itself ran, ms
	n, errs int
}

func startProber(c *client.Client, interval time.Duration) *prober {
	p := &prober{c: c, interval: interval, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop(time.Now())
	return p
}

func (p *prober) loop(start time.Time) {
	defer close(p.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * p.interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-p.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-p.stop:
				return
			default:
			}
		}
		if lag := float64(time.Since(due)) / 1e6; lag > p.lagMaxM {
			p.lagMaxM = lag
		}
		_, err := p.c.Stats()
		p.ms = append(p.ms, float64(time.Since(due))/1e6)
		p.n++
		if err != nil {
			p.errs++
		}
	}
}

// join stops the prober and waits for its goroutine to exit.
func (p *prober) join() {
	close(p.stop)
	<-p.done
}
