package daemon

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestWaitRunsHooksInOrder(t *testing.T) {
	sig := make(chan os.Signal, 2)
	var order []string
	var reloads atomic.Int32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		wait(sig, Hooks{
			Reload:   func() error { reloads.Add(1); return nil },
			Drain:    func() { order = append(order, "drain") },
			Shutdown: func() { order = append(order, "shutdown") },
			Metrics:  ln,
		})
		close(done)
	}()
	sig <- syscall.SIGHUP
	sig <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait never returned after SIGTERM")
	}
	if reloads.Load() != 1 {
		t.Fatalf("reloads = %d, want 1", reloads.Load())
	}
	if len(order) != 2 || order[0] != "drain" || order[1] != "shutdown" {
		t.Fatalf("hook order = %v, want [drain shutdown]", order)
	}
	// The metrics listener must be closed on exit.
	if _, err := ln.Accept(); err == nil {
		t.Fatal("metrics listener still open after wait returned")
	}
}

func TestWaitReloadErrorNotFatal(t *testing.T) {
	sig := make(chan os.Signal, 2)
	var msgs []string
	done := make(chan struct{})
	go func() {
		wait(sig, Hooks{
			Reload: func() error { return errors.New("keyring corrupt") },
			Log:    func(m string) { msgs = append(msgs, m) },
		})
		close(done)
	}()
	sig <- syscall.SIGHUP
	sig <- syscall.SIGINT
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait never returned")
	}
	found := false
	for _, m := range msgs {
		if m == "reload: keyring corrupt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reload error not logged: %v", msgs)
	}
}

func TestWaitDrainTimeout(t *testing.T) {
	sig := make(chan os.Signal, 1)
	shutdown := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	done := make(chan struct{})
	go func() {
		wait(sig, Hooks{
			Drain:        func() { <-hang },
			DrainTimeout: 30 * time.Millisecond,
			Shutdown:     func() { close(shutdown) },
		})
		close(done)
	}()
	sig <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait hung on a stuck drain despite DrainTimeout")
	}
	select {
	case <-shutdown:
	default:
		t.Fatal("shutdown skipped after drain timeout")
	}
}

func TestWaitSecondSignalSkipsDrain(t *testing.T) {
	sig := make(chan os.Signal, 2)
	hang := make(chan struct{})
	defer close(hang)
	done := make(chan struct{})
	go func() {
		wait(sig, Hooks{Drain: func() { <-hang }})
		close(done)
	}()
	sig <- syscall.SIGTERM
	go func() {
		time.Sleep(10 * time.Millisecond)
		sig <- syscall.SIGTERM
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGTERM did not break a blocked drain")
	}
}
