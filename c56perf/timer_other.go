//go:build !linux

package main

import "time"

// dueTimer waits until a request's due time with the runtime's timers.
type dueTimer struct{}

func newDueTimer() (*dueTimer, error) { return &dueTimer{}, nil }

// sleep returns after d (d > 0).
func (t *dueTimer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (t *dueTimer) close() {}
