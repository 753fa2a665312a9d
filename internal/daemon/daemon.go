// Package daemon factors the signal plumbing the dnsguard daemons share:
// block until SIGINT/SIGTERM, run a graceful drain before shutdown, reload
// on SIGHUP, and close the metrics listener on the way out. Before this
// existed each cmd carried its own signal.Notify block and none of them
// handled SIGHUP or drained before exit.
package daemon

import (
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Hooks configures Wait. Every field is optional.
type Hooks struct {
	// Reload runs on each SIGHUP (e.g. keyring reload). An error is logged,
	// not fatal — a daemon must survive a bad reload.
	Reload func() error
	// Drain runs once, after the first SIGINT/SIGTERM and before Shutdown.
	// It may block (a graceful drain); a second signal while draining skips
	// straight to Shutdown. DrainTimeout, when > 0, bounds the wait.
	Drain        func()
	DrainTimeout time.Duration
	// Shutdown runs once after Drain (or immediately on signal when Drain
	// is nil): close servers, print final stats.
	Shutdown func()
	// Metrics is the metrics/health HTTP listener, closed after Shutdown.
	Metrics io.Closer
	// Log receives progress lines ("draining", "reload: …"); nil discards
	// them.
	Log func(msg string)
}

// Wait blocks until the daemon should exit, handling signals per Hooks:
// SIGHUP → Reload, first SIGINT/SIGTERM → Drain then Shutdown then return.
// It is the single exit path the cmds share.
func Wait(h Hooks) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)
	wait(sig, h)
}

// wait is Wait over an injected signal channel (tested directly).
func wait(sig chan os.Signal, h Hooks) {
	log := h.Log
	if log == nil {
		log = func(string) {}
	}
	for s := range sig {
		if s == syscall.SIGHUP {
			if h.Reload == nil {
				log("SIGHUP ignored (no reload hook)")
				continue
			}
			if err := h.Reload(); err != nil {
				log("reload: " + err.Error())
			} else {
				log("reloaded")
			}
			continue
		}
		break // SIGINT / SIGTERM
	}
	if h.Drain != nil {
		log("draining")
		done := make(chan struct{})
		go func() { h.Drain(); close(done) }()
		var bound <-chan time.Time
		if h.DrainTimeout > 0 {
			t := time.NewTimer(h.DrainTimeout)
			defer t.Stop()
			bound = t.C
		}
		select {
		case <-done:
		case <-bound:
			log("drain timed out after " + h.DrainTimeout.String() + "; shutting down")
		case s := <-sig:
			if s != syscall.SIGHUP {
				log("second signal during drain; shutting down")
			}
		}
	}
	if h.Shutdown != nil {
		h.Shutdown()
	}
	if h.Metrics != nil {
		_ = h.Metrics.Close()
	}
}
